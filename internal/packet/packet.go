// Package packet defines the JTP packet formats of Fig 2 of the paper and
// the addressing types shared by every layer of the stack.
//
// Inside the simulator packets travel as *Packet structs, and energy is
// charged by Size(), which counts the header constants below. The package
// also keeps the binary wire codec (AppendEncode/DecodeInto) that would
// run on real radios; the simulator never calls it. Round-trip tests and
// the benchmark's packet probe do.
//
// Wire layout (big endian), mirroring the optimized header of Fig 2(a):
//
//	offset size field
//	0      1    version(4) | type(4)
//	1      1    flags
//	2      2    source node id
//	4      2    destination node id
//	6      2    flow id
//	8      4    sequence number
//	12     4    available rate (milli-packets/s, min over path so far)
//	16     2    loss tolerance (units of 10^-4, 0..10000)
//	18     2    payload length (bytes)
//	20     4    energy budget (µJ)
//	24     4    energy used (µJ)
//
// for a 28-byte data header, exactly the prototype size reported in §6.1.
// Packets carrying feedback append the ACK block of Fig 2(b):
//
//	0      4    cumulative ack
//	4      4    rate feedback (milli-packets/s)
//	8      4    energy budget feedback (µJ)
//	12     4    sender timeout (ms)
//	16     1    number of SNACK ranges
//	17     1    number of locally-recovered ranges
//	18     8·n  SNACK ranges (first, last inclusive, 4 bytes each)
//	...    8·m  locally-recovered ranges
package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// NodeID addresses a node, as carried in JTP headers.
type NodeID uint16

// String formats the id as "n<k>".
func (id NodeID) String() string { return fmt.Sprintf("n%d", uint16(id)) }

// FlowID identifies a transport connection end to end.
type FlowID uint16

// Type discriminates JTP packet types.
type Type uint8

const (
	// Data carries application payload from source to destination.
	Data Type = iota + 1
	// Ack carries receiver feedback (rate, energy budget, SNACK) and is
	// examined hop by hop by iJTP (§2.1.2).
	Ack
)

// String names the packet type.
func (t Type) String() string {
	switch t {
	case Data:
		return "DATA"
	case Ack:
		return "ACK"
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// Version is the wire format version encoded in the first header nibble.
const Version = 1

// Flags carried in the data header.
const (
	// FlagFirst marks the first packet of a transfer; its payload begins
	// with the transfer manifest (total packet count).
	FlagFirst uint8 = 1 << iota
	// FlagLast marks the final packet of a transfer.
	FlagLast
	// FlagRetransmit marks an end-to-end (source) retransmission; used by
	// the metrics layer to attribute energy.
	FlagRetransmit
	// FlagCacheRecovered marks a packet retransmitted by an in-network
	// cache on behalf of the source (§4).
	FlagCacheRecovered
	// FlagEarlyFeedback marks an ACK triggered by the path monitor's
	// shift detection rather than the regular feedback timer (§5.1).
	FlagEarlyFeedback
	// FlagDeadline marks a packet carrying the real-time deadline
	// extension word (§2.1.1: "the deadline field is used by real-time
	// traffic"). The wire encoding appends DeadlineExtSize bytes.
	FlagDeadline
)

// DeadlineExtSize is the encoded size of the optional deadline word.
const DeadlineExtSize = 4

// Header sizes in bytes, as charged on the air interface.
const (
	// DataHeaderSize is the optimized JTP header of Fig 2(a).
	DataHeaderSize = 28
	// AckFixedSize is the fixed part of the ACK block of Fig 2(b);
	// each SNACK or locally-recovered range adds RangeSize bytes.
	AckFixedSize = 18
	// RangeSize is the encoded size of one sequence range.
	RangeSize = 8
)

// SeqRange is an inclusive range of sequence numbers [First, Last], the
// unit of SNACK and locally-recovered reporting.
type SeqRange struct {
	First, Last uint32
}

// Count returns the number of sequence numbers covered.
func (r SeqRange) Count() int { return int(r.Last-r.First) + 1 }

// Contains reports whether seq falls in the range.
func (r SeqRange) Contains(seq uint32) bool { return seq >= r.First && seq <= r.Last }

// String formats the range as "[a..b]".
func (r SeqRange) String() string { return fmt.Sprintf("[%d..%d]", r.First, r.Last) }

// AckInfo is the feedback block of Fig 2(b): cumulative positive ACK,
// selective negative ACKs, the locally-recovered set, and the receiver's
// transmission-parameter feedback.
type AckInfo struct {
	// CumAck is the highest sequence number such that every needed packet
	// at or below it has been received (positive cumulative ack).
	CumAck uint32
	// Rate is the sending rate mandated by the destination's PI²/MD
	// controller, in packets/s.
	Rate float64
	// EnergyBudget is the per-packet energy budget mandated by the
	// destination's energy controller (joules).
	EnergyBudget float64
	// SenderTimeout is the feedback interval T the receiver is operating
	// at; if the source hears nothing for longer it must back off (§5.1).
	SenderTimeout float64
	// Snack lists sequence ranges the destination is still missing and
	// wants retransmitted. Intermediate caches serve these if they can.
	Snack []SeqRange
	// Recovered lists ranges already retransmitted by an in-network
	// cache on behalf of the source, so upstream nodes and the source do
	// not retransmit them again and the source can back off (§4, §4.2).
	Recovered []SeqRange
}

// RecoveredCount returns the total number of locally recovered packets.
func (a *AckInfo) RecoveredCount() int {
	n := 0
	for _, r := range a.Recovered {
		n += r.Count()
	}
	return n
}

// Packet is a JTP packet. Inside the simulator it is passed by pointer;
// AppendEncode serializes it to the wire format above.
type Packet struct {
	Type  Type
	Flags uint8
	Src   NodeID
	Dst   NodeID
	Flow  FlowID
	Seq   uint32

	// AvailRate is the minimum effective available rate (packets/s)
	// stamped by iJTP along the path so far (§2.1.1). The source
	// initializes it to +Inf semantics via InitialAvailRate.
	AvailRate float64
	// LossTol is the remaining end-to-end loss tolerance in [0,1],
	// re-encoded at every hop per Eq (3).
	LossTol float64
	// EnergyBudget is the maximum total energy (joules) the network may
	// spend on this packet before dropping it.
	EnergyBudget float64
	// EnergyUsed accumulates the energy (joules) spent on this packet so
	// far; incremented by iJTP before every link-layer transmission
	// (Algorithm 1).
	EnergyUsed float64
	// Deadline is the absolute virtual time in seconds after which the
	// packet is worthless to the application; zero means none. iJTP
	// drops expired packets instead of spending further energy on them.
	// Carried on the wire only when FlagDeadline is set.
	Deadline float64
	// PayloadLen is the application payload size in bytes. The simulator
	// does not carry actual payload bytes; the codec zero-fills them.
	PayloadLen int

	// Ack is non-nil on feedback-carrying packets.
	Ack *AckInfo

	// Pad is extra on-air bytes charged for this packet but not part of
	// the optimized wire encoding. The experiments use it to emulate the
	// prototype's 200-byte ACK header (§6.1: "the JTP ACK header is 200
	// bytes ... not optimized in this prototype implementation").
	Pad int

	// hops counts the links traversed; the network layer uses it as a
	// loop backstop. Not part of the wire format (JTP's principled loop
	// defense is the energy budget).
	hops int
}

// InitialAvailRate is the available-rate stamp a source writes before the
// first hop; any real link will be slower. (The wire codec saturates at
// the encodable maximum.)
const InitialAvailRate = 4e6 // packets/s

// Size returns the packet's size on the air in bytes: header, optional
// deadline extension, ACK block if present, payload, and pad.
func (p *Packet) Size() int {
	n := DataHeaderSize + p.PayloadLen + p.Pad
	if p.Flags&FlagDeadline != 0 {
		n += DeadlineExtSize
	}
	if p.Ack != nil {
		n += AckFixedSize + RangeSize*(len(p.Ack.Snack)+len(p.Ack.Recovered))
	}
	return n
}

// FlowID returns the flow identifier (transport dispatch key).
func (p *Packet) FlowID() FlowID { return p.Flow }

// AddHop increments and returns the hop counter.
func (p *Packet) AddHop() int {
	p.hops++
	return p.hops
}

// Dest returns the final destination (Segment interface).
func (p *Packet) Dest() NodeID { return p.Dst }

// Clone returns a deep copy; caches hand out clones so later header
// rewrites don't corrupt cached state.
func (p *Packet) Clone() *Packet {
	q := *p
	if p.Ack != nil {
		a := *p.Ack
		a.Snack = append([]SeqRange(nil), p.Ack.Snack...)
		a.Recovered = append([]SeqRange(nil), p.Ack.Recovered...)
		q.Ack = &a
	}
	return &q
}

// String formats a compact one-line description for traces.
func (p *Packet) String() string {
	if p.Ack != nil {
		return fmt.Sprintf("%s %v->%v flow=%d cum=%d snack=%v rate=%.2f",
			p.Type, p.Src, p.Dst, p.Flow, p.Ack.CumAck, p.Ack.Snack, p.Ack.Rate)
	}
	return fmt.Sprintf("%s %v->%v flow=%d seq=%d lt=%.3f rate=%.2f e=%.1f/%.1fµJ",
		p.Type, p.Src, p.Dst, p.Flow, p.Seq, p.LossTol, p.AvailRate,
		p.EnergyUsed*1e6, p.EnergyBudget*1e6)
}

// Errors returned by the codec.
var (
	ErrShortBuffer = errors.New("packet: buffer too short")
	ErrBadVersion  = errors.New("packet: unsupported version")
	ErrBadType     = errors.New("packet: unknown packet type")
	ErrTooManyRngs = errors.New("packet: too many SNACK/recovered ranges")
	ErrBadPayload  = errors.New("packet: payload length mismatch")
)

// Quantization of the wire encoding. Rates are carried in milli-packets/s,
// loss tolerance in 10^-4 units, energies in µJ, timeouts in ms.
const (
	rateUnit    = 1e-3 // packets/s per wire unit
	lossUnit    = 1e-4
	energyUnit  = 1e-6 // joules per wire unit
	timeoutUnit = 1e-3 // seconds per wire unit
	maxRanges   = 255
)

func encodeRate(r float64) uint32 {
	if r < 0 {
		return 0
	}
	v := r / rateUnit
	if v > math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(v + 0.5)
}

func decodeRate(v uint32) float64 { return float64(v) * rateUnit }

func encodeLoss(l float64) uint16 {
	if l < 0 {
		return 0
	}
	if l > 1 {
		l = 1
	}
	return uint16(l/lossUnit + 0.5)
}

func decodeLoss(v uint16) float64 {
	l := float64(v) * lossUnit
	if l > 1 {
		l = 1
	}
	return l
}

func encodeEnergy(e float64) uint32 {
	if e < 0 {
		return 0
	}
	v := e / energyUnit
	if v > math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(v + 0.5)
}

func decodeEnergy(v uint32) float64 { return float64(v) * energyUnit }

func encodeTimeout(t float64) uint32 {
	if t < 0 {
		return 0
	}
	v := t / timeoutUnit
	if v > math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(v + 0.5)
}

func decodeTimeout(v uint32) float64 { return float64(v) * timeoutUnit }

// Quantize rounds the packet's analog fields to their wire resolution, so
// that AppendEncode followed by DecodeInto reproduces the packet exactly.
// The simulator never calls it; round-trip tests and the benchmark's
// packet probe do.
func (p *Packet) Quantize() {
	p.AvailRate = decodeRate(encodeRate(p.AvailRate))
	p.LossTol = decodeLoss(encodeLoss(p.LossTol))
	p.EnergyBudget = decodeEnergy(encodeEnergy(p.EnergyBudget))
	p.EnergyUsed = decodeEnergy(encodeEnergy(p.EnergyUsed))
	if p.Flags&FlagDeadline != 0 {
		p.Deadline = decodeTimeout(encodeTimeout(p.Deadline))
	} else {
		p.Deadline = 0
	}
	if p.Ack != nil {
		p.Ack.Rate = decodeRate(encodeRate(p.Ack.Rate))
		p.Ack.EnergyBudget = decodeEnergy(encodeEnergy(p.Ack.EnergyBudget))
		p.Ack.SenderTimeout = decodeTimeout(encodeTimeout(p.Ack.SenderTimeout))
	}
}

// AppendEncode appends the wire representation to dst and returns the
// extended slice. Payload bytes are zero-filled (the simulator carries no
// payload). When dst has capacity for the encoding, no allocation is
// performed — callers on hot paths reuse one buffer across packets.
func (p *Packet) AppendEncode(dst []byte) ([]byte, error) {
	if p.Type != Data && p.Type != Ack {
		return dst, ErrBadType
	}
	if p.Ack != nil && (len(p.Ack.Snack) > maxRanges || len(p.Ack.Recovered) > maxRanges) {
		return dst, ErrTooManyRngs
	}
	if p.PayloadLen < 0 || p.PayloadLen > math.MaxUint16 {
		return dst, ErrBadPayload
	}
	var hdr [DataHeaderSize]byte
	hdr[0] = Version<<4 | uint8(p.Type)
	hdr[1] = p.Flags
	binary.BigEndian.PutUint16(hdr[2:], uint16(p.Src))
	binary.BigEndian.PutUint16(hdr[4:], uint16(p.Dst))
	binary.BigEndian.PutUint16(hdr[6:], uint16(p.Flow))
	binary.BigEndian.PutUint32(hdr[8:], p.Seq)
	binary.BigEndian.PutUint32(hdr[12:], encodeRate(p.AvailRate))
	binary.BigEndian.PutUint16(hdr[16:], encodeLoss(p.LossTol))
	binary.BigEndian.PutUint16(hdr[18:], uint16(p.PayloadLen))
	binary.BigEndian.PutUint32(hdr[20:], encodeEnergy(p.EnergyBudget))
	binary.BigEndian.PutUint32(hdr[24:], encodeEnergy(p.EnergyUsed))
	dst = append(dst, hdr[:]...)

	if p.Flags&FlagDeadline != 0 {
		var ext [DeadlineExtSize]byte
		binary.BigEndian.PutUint32(ext[:], encodeTimeout(p.Deadline))
		dst = append(dst, ext[:]...)
	}

	if p.Ack != nil {
		var fixed [AckFixedSize]byte
		binary.BigEndian.PutUint32(fixed[0:], p.Ack.CumAck)
		binary.BigEndian.PutUint32(fixed[4:], encodeRate(p.Ack.Rate))
		binary.BigEndian.PutUint32(fixed[8:], encodeEnergy(p.Ack.EnergyBudget))
		binary.BigEndian.PutUint32(fixed[12:], encodeTimeout(p.Ack.SenderTimeout))
		fixed[16] = uint8(len(p.Ack.Snack))
		fixed[17] = uint8(len(p.Ack.Recovered))
		dst = append(dst, fixed[:]...)
		var rng [RangeSize]byte
		for _, r := range p.Ack.Snack {
			binary.BigEndian.PutUint32(rng[0:], r.First)
			binary.BigEndian.PutUint32(rng[4:], r.Last)
			dst = append(dst, rng[:]...)
		}
		for _, r := range p.Ack.Recovered {
			binary.BigEndian.PutUint32(rng[0:], r.First)
			binary.BigEndian.PutUint32(rng[4:], r.Last)
			dst = append(dst, rng[:]...)
		}
	}

	// Zero-filled payload, without a scratch allocation: grow in place
	// when capacity allows (the reuse case), fall back to one amortized
	// append-grow otherwise.
	n := len(dst)
	if total := n + p.PayloadLen; cap(dst) >= total {
		dst = dst[:total]
		clear(dst[n:])
	} else {
		dst = append(dst, make([]byte, p.PayloadLen)...)
	}
	return dst, nil
}

// hasAckBlock reports whether a packet of this type carries the feedback
// block. The codec infers it from the type: ACK packets always carry one.
func hasAckBlock(t Type) bool { return t == Ack }

// DecodeInto parses one packet from buf into p, overwriting every field,
// and returns the number of bytes consumed. The receiver's existing
// AckInfo block and SNACK/recovered range capacity are reused, so a
// steady stream of same-shape packets (e.g. range-carrying ACKs) decodes
// with zero allocations once buffers have reached their steady-state
// sizes. Shape changes forfeit the reuse: decoding a DATA image drops
// the AckInfo block, and an empty SNACK/recovered set decodes to a nil
// slice, releasing that capacity. On error p is left in
// an unspecified state.
func (p *Packet) DecodeInto(buf []byte) (int, error) {
	if len(buf) < DataHeaderSize {
		return 0, ErrShortBuffer
	}
	if buf[0]>>4 != Version {
		return 0, ErrBadVersion
	}
	t := Type(buf[0] & 0x0F)
	if t != Data && t != Ack {
		return 0, ErrBadType
	}
	ack := p.Ack // reusable block, reattached below when present on the wire
	*p = Packet{
		Type:  t,
		Flags: buf[1],
		Src:   NodeID(binary.BigEndian.Uint16(buf[2:])),
		Dst:   NodeID(binary.BigEndian.Uint16(buf[4:])),
		Flow:  FlowID(binary.BigEndian.Uint16(buf[6:])),
		Seq:   binary.BigEndian.Uint32(buf[8:]),
	}
	p.AvailRate = decodeRate(binary.BigEndian.Uint32(buf[12:]))
	p.LossTol = decodeLoss(binary.BigEndian.Uint16(buf[16:]))
	p.PayloadLen = int(binary.BigEndian.Uint16(buf[18:]))
	p.EnergyBudget = decodeEnergy(binary.BigEndian.Uint32(buf[20:]))
	p.EnergyUsed = decodeEnergy(binary.BigEndian.Uint32(buf[24:]))
	n := DataHeaderSize

	if p.Flags&FlagDeadline != 0 {
		if len(buf) < n+DeadlineExtSize {
			return 0, ErrShortBuffer
		}
		p.Deadline = decodeTimeout(binary.BigEndian.Uint32(buf[n:]))
		n += DeadlineExtSize
	}

	if hasAckBlock(p.Type) {
		if len(buf) < n+AckFixedSize {
			return 0, ErrShortBuffer
		}
		if ack == nil {
			ack = new(AckInfo)
		}
		*ack = AckInfo{
			CumAck:        binary.BigEndian.Uint32(buf[n:]),
			Rate:          decodeRate(binary.BigEndian.Uint32(buf[n+4:])),
			EnergyBudget:  decodeEnergy(binary.BigEndian.Uint32(buf[n+8:])),
			SenderTimeout: decodeTimeout(binary.BigEndian.Uint32(buf[n+12:])),
			Snack:         ack.Snack[:0],
			Recovered:     ack.Recovered[:0],
		}
		ns, nr := int(buf[n+16]), int(buf[n+17])
		n += AckFixedSize
		need := RangeSize * (ns + nr)
		if len(buf) < n+need {
			return 0, ErrShortBuffer
		}
		for i := 0; i < ns; i++ {
			ack.Snack = append(ack.Snack, SeqRange{
				First: binary.BigEndian.Uint32(buf[n:]),
				Last:  binary.BigEndian.Uint32(buf[n+4:]),
			})
			n += RangeSize
		}
		for i := 0; i < nr; i++ {
			ack.Recovered = append(ack.Recovered, SeqRange{
				First: binary.BigEndian.Uint32(buf[n:]),
				Last:  binary.BigEndian.Uint32(buf[n+4:]),
			})
			n += RangeSize
		}
		if ns == 0 {
			ack.Snack = nil
		}
		if nr == 0 {
			ack.Recovered = nil
		}
		p.Ack = ack
	}

	if len(buf) < n+p.PayloadLen {
		return 0, ErrShortBuffer
	}
	n += p.PayloadLen
	return n, nil
}

// Pool is a packet free-list. Each simulation engine (network) owns one:
// transports acquire packets from it instead of the heap and the terminal
// consumer of a packet — the endpoint a DATA packet is delivered to, the
// source an ACK is delivered to, an evicting cache — recycles it, so
// steady-state traffic stops allocating packets.
//
// Ownership rule (see DESIGN.md "Performance & memory model"): a packet
// may be recycled only by code that can prove it holds the last
// reference. In this repository that is true at exactly the terminal
// points above, because the in-network caches store and serve clones,
// never the traversing packet itself. Packets that drop inside the
// network (retry exhaustion, queue overflow, plugin veto) are deliberately
// NOT recycled — the MAC drop callback and tracers may still observe
// them — and are reclaimed by the garbage collector as before.
//
// Pool is not safe for concurrent use; like the Engine it belongs to a
// single simulation goroutine. The zero value is ready to use, and a nil
// *Pool is valid: Get falls back to the heap and Put discards, so code
// holding no pool needs no branch. (internal/pool.FreeList is the
// generic sibling for transports with standalone segment types; Pool stays
// hand-rolled because it recycles a paired Packet+AckInfo with detach
// logic and DecodeInto-parity constraints on the range slices.)
type Pool struct {
	pkts []*Packet
	acks []*AckInfo
	// held counts the packets at the bottom of pkts that were put before
	// the last Clear. The list is a stack, so every packet put since sits
	// above them.
	held int

	// Reuse accounting for telemetry, read once per run via Stats. Plain
	// counters: the pool is single-goroutine like the Engine.
	gets   uint64
	puts   uint64
	misses uint64
}

// Clear zeroes the reuse counters and marks the packets on the list as
// held over, keeping them for later Gets. Until the next Clear, Stats
// counts as a miss every Get that no packet put since Clear could serve
// — exactly the Gets a new, empty pool would have missed — so the
// counters describe one run whatever ran on the pool before it.
func (pl *Pool) Clear() {
	pl.gets, pl.puts, pl.misses = 0, 0, 0
	pl.held = len(pl.pkts)
}

// Get returns a zeroed packet, recycled when the free-list is non-empty.
func (pl *Pool) Get() *Packet {
	if pl == nil {
		return new(Packet)
	}
	pl.gets++
	n := len(pl.pkts)
	if n == pl.held {
		pl.misses++
		if n == 0 {
			return new(Packet)
		}
		pl.held--
	}
	p := pl.pkts[n-1]
	pl.pkts = pl.pkts[:n-1]
	return p
}

// Stats returns the pool's reuse counters since the last Clear: packet
// Gets, Puts, and Gets that missed the packets put since (see Clear).
// Zeros on a nil pool.
func (pl *Pool) Stats() (gets, puts, misses uint64) {
	if pl == nil {
		return 0, 0, 0
	}
	return pl.gets, pl.puts, pl.misses
}

// GetAck returns a zeroed feedback block whose SNACK/recovered slices
// keep their recycled capacity (presented empty, non-nil only while
// capacity exists).
func (pl *Pool) GetAck() *AckInfo {
	if pl == nil || len(pl.acks) == 0 {
		return new(AckInfo)
	}
	a := pl.acks[len(pl.acks)-1]
	pl.acks = pl.acks[:len(pl.acks)-1]
	return a
}

// Put recycles a packet (and its feedback block, if any) onto the
// free-list. The caller must hold the last reference; the packet is
// zeroed here so use-after-put surfaces as obviously-wrong field values
// rather than silent corruption. Put(nil) and puts on a nil pool are
// no-ops.
func (pl *Pool) Put(p *Packet) {
	if pl == nil || p == nil {
		return
	}
	pl.puts++
	if a := p.Ack; a != nil {
		*a = AckInfo{Snack: a.Snack[:0], Recovered: a.Recovered[:0]}
		pl.acks = append(pl.acks, a)
	}
	*p = Packet{}
	pl.pkts = append(pl.pkts, p)
}

// CloneInto copies p into dst (both non-nil), giving caches an
// allocation-free alternative to Clone when dst comes from a Pool.
// Feedback blocks are deep-copied into dst's (possibly recycled) block.
func (p *Packet) CloneInto(dst *Packet, pl *Pool) {
	ack := dst.Ack
	*dst = *p
	if p.Ack == nil {
		dst.Ack = nil
		if ack != nil {
			*ack = AckInfo{Snack: ack.Snack[:0], Recovered: ack.Recovered[:0]}
			if pl != nil {
				pl.acks = append(pl.acks, ack)
			}
		}
		return
	}
	if ack == nil {
		if pl != nil {
			ack = pl.GetAck()
		} else {
			ack = new(AckInfo)
		}
	}
	// Keep dst's own range buffers: copy the source ranges into them
	// rather than aliasing the source's arrays (iJTP mutates served ACK
	// ranges in place).
	snack, recovered := ack.Snack[:0], ack.Recovered[:0]
	*ack = *p.Ack
	ack.Snack = append(snack, p.Ack.Snack...)
	ack.Recovered = append(recovered, p.Ack.Recovered...)
	dst.Ack = ack
}

// RangesContain reports whether seq is covered by any of the ranges.
func RangesContain(ranges []SeqRange, seq uint32) bool {
	for _, r := range ranges {
		if r.Contains(seq) {
			return true
		}
	}
	return false
}

// RemoveFromRanges removes seq from the set described by ranges, splitting
// a range when the removal is interior. Used by iJTP when moving a
// sequence number from the SNACK field to the locally-recovered field.
// The result is a fresh slice: an interior split grows the set by one,
// so building in place would clobber unread input.
func RemoveFromRanges(ranges []SeqRange, seq uint32) []SeqRange {
	out := make([]SeqRange, 0, len(ranges)+1)
	for _, r := range ranges {
		switch {
		case !r.Contains(seq):
			out = append(out, r)
		case r.First == seq && r.Last == seq:
			// drop entirely
		case r.First == seq:
			out = append(out, SeqRange{First: seq + 1, Last: r.Last})
		case r.Last == seq:
			out = append(out, SeqRange{First: r.First, Last: seq - 1})
		default:
			out = append(out, SeqRange{First: r.First, Last: seq - 1},
				SeqRange{First: seq + 1, Last: r.Last})
		}
	}
	return out
}
