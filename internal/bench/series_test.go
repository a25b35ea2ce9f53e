package bench

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/machine"
)

func TestSeriesAddGetFormat(t *testing.T) {
	s := NewSeries("T", "x", "ms", "a", "b")
	s.AddX("1", 1.5, 2.5)
	s.AddX("2", 3.0, 4.0)
	if got := s.Get("a", 1); got != 3.0 {
		t.Errorf("Get(a,1) = %v", got)
	}
	if got := s.Get("b", 0); got != 2.5 {
		t.Errorf("Get(b,0) = %v", got)
	}
	out := s.Format()
	for _, want := range []string{"T", "a", "b", "1.500", "4.000", "[ms]"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format missing %q:\n%s", want, out)
		}
	}
	s.Notes = "caveat"
	if !strings.Contains(s.Format(), "note: caveat") {
		t.Error("Notes not rendered")
	}
}

func TestSeriesPanicsOnMisuse(t *testing.T) {
	s := NewSeries("T", "x", "ms", "a")
	assertPanics(t, "short AddX", func() { s.AddX("1") })
	s.AddX("1", 1.0)
	assertPanics(t, "unknown curve", func() { s.Get("zzz", 0) })
}

func assertPanics(t *testing.T, label string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", label)
		}
	}()
	fn()
}

func TestMeasureErrorsWrapped(t *testing.T) {
	m := machine.Paragon(2, 2)
	spec, err := SpecFor(m, dist.Equal(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MustMillis(m, core.BrLin(), spec, 128); err != nil {
		t.Fatalf("valid measurement failed: %v", err)
	}
	// A spec for the wrong machine size must fail with context: it has a
	// program, for six ranks, which the machine refuses before it runs.
	bad := spec
	bad.Rows = 3
	_, err = MustMillis(m, core.BrLin(), bad, 128)
	if err == nil {
		t.Fatal("mismatched spec accepted")
	}
	for _, want := range []string{"bench: Br_Lin on paragon-nx-2x2", "mesh 3×2 does not cover machine of 4"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not say %q", err, want)
		}
	}
}

func TestSpecForRejectsOversizedS(t *testing.T) {
	m := machine.Paragon(2, 2)
	if _, err := SpecFor(m, dist.Equal(), 5); err == nil {
		t.Fatal("s > p accepted")
	}
}

func TestMeasureVarLengths(t *testing.T) {
	m := machine.Paragon(2, 3)
	spec, err := SpecFor(m, dist.Equal(), 2)
	if err != nil {
		t.Fatal(err)
	}
	lengths := map[int]int{spec.Sources[0]: 100, spec.Sources[1]: 5000}
	res, err := measure(m, core.BrLin(), spec, func(r int) int { return lengths[r] })
	if err != nil {
		t.Fatal(err)
	}
	// Every processor must end having received 5100 bytes worth of
	// payload at least once; the cheapest check is nonzero elapsed plus
	// total received volume ≥ p·(payload not held natively).
	if res.Elapsed <= 0 {
		t.Fatal("no time")
	}
	var recv int64
	for _, ps := range res.Procs {
		recv += ps.RecvBytes
	}
	if recv < 5100 {
		t.Fatalf("total received %d < one full bundle", recv)
	}
}
