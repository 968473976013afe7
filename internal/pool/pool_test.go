package pool

import "testing"

type seg struct {
	seq int
	buf []byte
}

func TestNilFreeListDegradesToHeap(t *testing.T) {
	var p *FreeList[seg]
	v := p.Get()
	if v == nil || v.seq != 0 || v.buf != nil {
		t.Fatalf("nil list Get = %+v, want a fresh zero value", v)
	}
	p.Put(v) // must not panic
	if w := p.Get(); w == v {
		t.Fatal("nil list recycled a value")
	}
}

func TestPutResetsAndGetIsLIFO(t *testing.T) {
	resets := 0
	p := New(func(s *seg) { resets++; s.seq = 0; s.buf = s.buf[:0] })
	a, b := p.Get(), p.Get()
	a.seq, a.buf = 1, append(a.buf, 1, 2, 3)
	b.seq = 2
	p.Put(a)
	if resets != 1 || a.seq != 0 || len(a.buf) != 0 || cap(a.buf) < 3 {
		t.Fatalf("after Put: resets = %d, a = %+v (cap %d); want the reset applied before reuse, capacity kept", resets, a, cap(a.buf))
	}
	p.Put(b)
	if got := p.Get(); got != b {
		t.Fatal("Get did not return the most recently Put value")
	}
	if got := p.Get(); got != a {
		t.Fatal("second Get did not return the earlier Put value")
	}
	if got := p.Get(); got == a || got == b {
		t.Fatal("empty list handed out a value still in use")
	}
}

func TestPutNilIsNoOp(t *testing.T) {
	p := New(func(*seg) { t.Fatal("reset called for a nil value") })
	p.Put(nil)
	if v := p.Get(); v == nil {
		t.Fatal("Get returned the nil that was Put")
	}
}

func TestDefaultResetZeroes(t *testing.T) {
	p := New[seg](nil)
	v := p.Get()
	v.seq, v.buf = 7, []byte{1}
	p.Put(v)
	if w := p.Get(); w != v || w.seq != 0 || w.buf != nil {
		t.Fatalf("recycled value = %+v (same pointer: %v), want the same pointer zeroed", w, w == v)
	}
}

func TestAllocsGetPutSteadyState(t *testing.T) {
	p := New[seg](nil)
	p.Put(p.Get())
	if allocs := testing.AllocsPerRun(1000, func() { p.Put(p.Get()) }); allocs != 0 {
		t.Fatalf("Get+Put allocates %.1f allocs/op at steady state, want 0", allocs)
	}
}
