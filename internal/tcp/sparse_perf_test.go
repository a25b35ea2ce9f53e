package tcp

import (
	"testing"
)

// disseminationLinks is the directed link set of the engine's own
// dissemination barrier at p ranks — a representative p·⌈log₂p⌉ sparse
// schedule (every rank sends to rank+2^j mod p).
func disseminationLinks(p int) [][2]int {
	var links [][2]int
	for k := 1; k < p; k <<= 1 {
		for i := 0; i < p; i++ {
			links = append(links, [2]int{i, (i + k) % p})
		}
	}
	return links
}

// BenchmarkSparseSetupP64 measures standing up (and tearing down) a
// p=64 machine over a dissemination-pattern sparse link plan — the
// cold-start cost the sparse mesh exists to shrink. Compare with
// BenchmarkFullMeshSetupP64: the sparse plan opens ~p·log p
// connections instead of p(p−1)/2.
func BenchmarkSparseSetupP64(b *testing.B) {
	links := disseminationLinks(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := NewMachine(64, Options{Links: links})
		if err != nil {
			b.Fatal(err)
		}
		m.Close()
	}
}

// BenchmarkFullMeshSetupP64 is the dense baseline for
// BenchmarkSparseSetupP64: the historical full O(p²) mesh at the same
// scale.
func BenchmarkFullMeshSetupP64(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := NewMachine(64, Options{})
		if err != nil {
			b.Fatal(err)
		}
		m.Close()
	}
}
