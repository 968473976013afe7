package drivers

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"github.com/javelen/jtp/internal/transport"
)

// TestProtocolSet pins the closed protocol set: the four names of the
// paper's comparison, each resolving to a factory.
func TestProtocolSet(t *testing.T) {
	want := []string{"atp", "jnc", "jtp", "tcp"}
	if got := Names(); !slices.Equal(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for _, name := range want {
		if f, err := Lookup(name); err != nil || f == nil {
			t.Errorf("Lookup(%q) = %v, %v; want a factory", name, f, err)
		}
	}
}

// TestLookupMissError pins the unknown-name error: it wraps
// ErrUnknownProtocol, quotes the name and reads exactly as before the
// set was closed.
func TestLookupMissError(t *testing.T) {
	f, err := Lookup("no-such")
	if f != nil {
		t.Error("Lookup(no-such) returned a factory")
	}
	if !errors.Is(err, transport.ErrUnknownProtocol) {
		t.Fatalf("Lookup(no-such): got %v, want ErrUnknownProtocol", err)
	}
	if want := `transport: unknown protocol "no-such" (registered: atp, jnc, jtp, tcp)`; err.Error() != want {
		t.Errorf("Lookup(no-such) error %q, want %q", err, want)
	}
}

// TestLookupErrorListsRegisteredSet requires the unknown-name error to
// list every name Names returns, so a protocol added to the table shows
// up in the message without further edits.
func TestLookupErrorListsRegisteredSet(t *testing.T) {
	_, err := Lookup("missing")
	if err == nil {
		t.Fatal("Lookup(missing) returned no error")
	}
	if want := "(registered: " + strings.Join(Names(), ", ") + ")"; !strings.HasSuffix(err.Error(), want) {
		t.Errorf("lookup-miss error %q does not end with %q", err, want)
	}
}

// TestNamesSortedAndRegistered requires Names to be sorted and unique,
// every name in it to resolve, and names differing only in case or
// spacing not to.
func TestNamesSortedAndRegistered(t *testing.T) {
	names := Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names() not sorted/unique: %v", names)
		}
	}
	for _, name := range names {
		if _, err := Lookup(name); err != nil {
			t.Errorf("Lookup(%q): %v", name, err)
		}
		for _, near := range []string{strings.ToUpper(name), " " + name, name + " "} {
			if _, err := Lookup(near); !errors.Is(err, transport.ErrUnknownProtocol) {
				t.Errorf("Lookup(%q): got %v, want ErrUnknownProtocol", near, err)
			}
		}
	}
}

// TestIJTPNames requires exactly jtp and jnc to install the iJTP
// plugin set; an unknown name installs nothing.
func TestIJTPNames(t *testing.T) {
	for _, name := range append(Names(), "no-such", "") {
		if got := IJTP(name); got != (name == "jtp" || name == "jnc") {
			t.Errorf("IJTP(%q) = %v", name, got)
		}
	}
}
