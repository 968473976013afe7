package coordinator

// EnvChaosExitAt is a fault-injection knob for testing the supervision
// machinery: when set to a fold sequence number, a worker with a
// checkpoint exits abruptly (ChaosExitCode, no final checkpoint, no
// shard file) as soon as its fold frontier reaches that sequence —
// simulating a crash at a deterministic point mid-campaign.
const EnvChaosExitAt = "JTPSIM_CHAOS_EXIT_AT"

// ChaosExitCode is the exit code of an EnvChaosExitAt suicide, chosen
// distinct from clean exits (0), campaign failures (1), and usage
// errors (2) so coordinator logs attribute the death correctly.
const ChaosExitCode = 3
