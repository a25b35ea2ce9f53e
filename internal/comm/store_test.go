package comm

import (
	"testing"
	"unsafe"
)

// TestStoreFollowsTheMark pins the one recycle rule on each kind of
// storage a store holds: part arrays with the RecycledOrigin fill,
// received bytes with a poison fill, and a session's result maps with no
// fill. On each, nothing is listed before the first mark, a marked run's
// slices are handed out again in order (passed to the fill until written
// over), a slice too small for the request is replaced, a run nobody
// marked is forgotten, and a nil mark frees nothing.
func TestStoreFollowsTheMark(t *testing.T) {
	for _, row := range []struct {
		name  string
		check func(t *testing.T)
	}{
		{"parts, RecycledOrigin fill", func(t *testing.T) {
			followsTheMark(t, func(i int) Part { return Part{Origin: i} }, FillRecycled,
				func(_ int, p Part) bool { return p.Origin == RecycledOrigin && p.Data == nil })
		}},
		{"bytes, poison fill", func(t *testing.T) {
			followsTheMark(t, func(i int) byte { return byte(i) }, func(b []byte) {
				for i := range b {
					b[i] = 0xA5
				}
			}, func(_ int, b byte) bool { return b == 0xA5 })
		}},
		{"maps, no fill", func(t *testing.T) {
			followsTheMark(t, func(i int) map[int][]byte { return map[int][]byte{i: nil} }, nil,
				func(i int, m map[int][]byte) bool {
					_, ok := m[7+i]
					return i < 2 && len(m) == 1 && ok || i >= 2 && m == nil
				})
		}},
	} {
		t.Run(row.name, row.check)
	}

	var none *Mark
	if list, reuse := none.Frees(0); list || reuse {
		t.Fatal("a nil mark frees storage")
	}
}

// followsTheMark runs the rule on a Store[E]: elem(i) makes a distinct
// element, and reused(i, e) says whether element i of a slice handed out
// again holds what fill left there.
func followsTheMark[E any](t *testing.T, elem func(i int) E, fill func([]E), reused func(i int, e E) bool) {
	var mark Mark
	var s Store[E]
	same := func(x, y []E) bool { return unsafe.SliceData(x[:cap(x)]) == unsafe.SliceData(y[:cap(y)]) }

	s.Begin(1, &mark, fill)
	first := s.Get(2)
	s.Begin(2, &mark, fill)
	if again := s.Get(2); same(again, first) || len(s.items) != 0 {
		t.Fatalf("a store whose runs were never marked reused or listed a slice (listed %d)", len(s.items))
	}

	mark.Set(2)
	s.Begin(3, &mark, fill) // lists from here on
	x, y := s.Get(3), s.Get(1)
	x = append(x, elem(7), elem(8))
	mark.Set(3)
	s.Begin(4, &mark, fill)
	if got := s.Get(2); !same(got, x) || len(got) != 0 {
		t.Fatalf("the marked run's first slice was not handed out again, emptied")
	}
	if got := s.Get(4); same(got, y) {
		t.Fatal("a slice of 1 element was handed out for 4")
	}
	for i, e := range x[:cap(x)] {
		if !reused(i, e) {
			t.Fatalf("element %d of a recycled slice is %v, not what the fill leaves", i, e)
		}
	}

	s.Begin(5, &mark, fill) // run 4 was not marked
	if got := s.Get(2); same(got, x) {
		t.Fatal("a run nobody marked had its slices handed out again")
	}

	var nilMarked Store[E]
	nilMarked.Begin(1, nil, fill)
	nilMarked.Get(2)
	nilMarked.Begin(2, nil, fill)
	if nilMarked.Get(2); len(nilMarked.items) != 0 {
		t.Fatalf("a store on a nil mark listed %d slices", len(nilMarked.items))
	}
}
