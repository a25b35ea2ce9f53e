package comm

import (
	"testing"
	"unsafe"
)

// TestArraysFollowTheMark pins the one recycle rule on a store: nothing
// is listed before the first mark, a marked run's arrays are handed out
// again in order (filled with RecycledOrigin parts until written over),
// an array too small for the request is replaced, and a run nobody
// marked is forgotten.
func TestArraysFollowTheMark(t *testing.T) {
	var mark Mark
	var a Arrays
	same := func(x, y []Part) bool { return unsafe.SliceData(x[:cap(x)]) == unsafe.SliceData(y[:cap(y)]) }

	a.Begin(1, &mark)
	first := a.Get(2)
	a.Begin(2, &mark)
	if again := a.Get(2); same(again, first) || len(a.arrays) != 0 {
		t.Fatalf("a store whose runs were never marked reused or listed an array (listed %d)", len(a.arrays))
	}

	mark.Set(2)
	a.Begin(3, &mark) // lists from here on
	x, y := a.Get(3), a.Get(1)
	x = append(x, Part{Origin: 7}, Part{Origin: 8})
	mark.Set(3)
	a.Begin(4, &mark)
	if got := a.Get(2); !same(got, x) || len(got) != 0 {
		t.Fatalf("the marked run's first array was not handed out again, emptied")
	}
	if got := a.Get(4); same(got, y) {
		t.Fatal("an array of 1 part was handed out for 4")
	}
	for i, p := range x[:cap(x)] {
		if p.Origin != RecycledOrigin || p.Data != nil {
			t.Fatalf("part %d of a recycled array is %+v, want the RecycledOrigin fill", i, p)
		}
	}

	a.Begin(5, &mark) // run 4 was not marked
	if got := a.Get(2); same(got, x) {
		t.Fatal("a run nobody marked had its arrays handed out again")
	}

	var none *Mark
	if list, reuse := none.Frees(0); list || reuse {
		t.Fatal("a nil mark frees storage")
	}
}
