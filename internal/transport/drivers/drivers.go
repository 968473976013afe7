// Package drivers is the protocol set: the four transports of the
// paper's comparison (§6), by name. It is the one package that imports
// every protocol package, so the experiment harness, the public jtp API
// and the CLI resolve protocol names through it.
//
// Adding a protocol is: implement a transport.Factory in its package,
// add a case for its name to Lookup and the name to Names. Every figure
// campaign, batch matrix and CLI listing picks it up with no further
// changes.
package drivers

import (
	"fmt"
	"strings"

	"github.com/javelen/jtp/internal/atp"
	"github.com/javelen/jtp/internal/core"
	"github.com/javelen/jtp/internal/tcpsack"
	"github.com/javelen/jtp/internal/transport"
)

// Lookup returns the factory of the named protocol. The error wraps
// transport.ErrUnknownProtocol and lists the protocol set.
func Lookup(name string) (transport.Factory, error) {
	switch name {
	case "atp":
		return transport.Baseline("atp", atp.InstallStampers, atp.Dial), nil
	case "jnc":
		return core.Driver("jnc", false), nil
	case "jtp":
		return core.Driver("jtp", true), nil
	case "tcp":
		return transport.Baseline("tcp", nil, tcpsack.Dial), nil
	}
	return nil, fmt.Errorf("%w %q (registered: %s)", transport.ErrUnknownProtocol, name, strings.Join(Names(), ", "))
}

// Names returns the protocol names, sorted.
func Names() []string { return []string{"atp", "jnc", "jtp", "tcp"} }

// IJTP reports whether the named protocol installs the iJTP plugin set.
// "jtp" and "jnc" both do, and the plugins act on every JTP packet of
// the network, so the two may not share a network: each packet would be
// charged energy and answered twice.
func IJTP(name string) bool { return name == "jtp" || name == "jnc" }
