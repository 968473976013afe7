// Package pool provides the tiny LIFO free-list behind per-connection
// segment recycling. transport.Dial builds one per end-to-end baseline
// connection (internal/atp, internal/tcpsack) and hands it to both
// ends. It complements packet.Pool (the engine-wide JTP packet
// free-list) for transports with their own segment types: the endpoint
// that terminally consumes a segment puts it back, the endpoint that
// originates draws from it.
//
// Free-lists are not safe for concurrent use — like everything engine-
// coupled they belong to one simulation goroutine. A nil *FreeList is
// valid and degrades to plain heap allocation, so recycling is strictly
// opt-in for endpoints built without transport.Dial.
package pool

// FreeList recycles *T values. Construct with New.
type FreeList[T any] struct {
	free  []*T
	reset func(*T)
}

// New returns a free-list whose Put resets recycled values with reset
// (nil means zero the value). Reset must clear anything that would leak
// state into the next user while keeping whatever buffer capacity the
// caller wants to reuse.
func New[T any](reset func(*T)) *FreeList[T] {
	if reset == nil {
		reset = func(v *T) { var zero T; *v = zero }
	}
	return &FreeList[T]{reset: reset}
}

// Get returns a recycled value, or a fresh zero value when the list is
// empty or nil.
func (p *FreeList[T]) Get() *T {
	if p == nil || len(p.free) == 0 {
		return new(T)
	}
	v := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	return v
}

// Put resets v and pushes it onto the free-list. The caller must hold
// the last reference. Put on a nil list (or of a nil value) is a no-op.
func (p *FreeList[T]) Put(v *T) {
	if p == nil || v == nil {
		return
	}
	p.reset(v)
	p.free = append(p.free, v)
}
