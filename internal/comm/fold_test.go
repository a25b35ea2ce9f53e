package comm

import (
	"math/rand"
	"reflect"
	"testing"
)

// fold1 is the fold of one message's parts.
func fold1(m Message) Message { return new(executor).fold(m.Tag, m.Parts, nil) }

// TestFold pins the fold semantics: byte-wise sum mod 256 as long as the
// longest part, empty in empty out, and a lone part that is a fold
// already comes back as it is.
func TestFold(t *testing.T) {
	got := fold1(Message{Parts: []Part{
		{Origin: 0, Data: []byte{1, 2, 250}},
		{Origin: 3, Data: []byte{10, 20}},
	}})
	want := []byte{11, 22, 250}
	if len(got.Parts) != 1 || got.Parts[0].Origin != ReducedOrigin || !reflect.DeepEqual(got.Parts[0].Data, want) {
		t.Fatalf("data fold = %+v", got.Parts)
	}
	if empty := fold1(Message{}); len(empty.Parts) != 0 {
		t.Fatalf("fold of nothing = %+v", empty.Parts)
	}
	if again := new(executor).fold(7, nil, got.Parts); again.Tag != 7 || !reflect.DeepEqual(again.Parts, got.Parts) {
		t.Fatalf("fold of a fold = %+v", again)
	}
}

// TestFoldMatchesByteLoop: the word-wise fold computes what the plain
// byte loop does, over random bundles of unequal parts — lengths on and
// off the 8-byte grid, bytes near the carry boundaries.
func TestFoldMatchesByteLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		m := Message{Tag: trial, Parts: make([]Part, 1+rng.Intn(6))}
		maxLen := 0
		for i := range m.Parts {
			data := make([]byte, rng.Intn(70))
			for j := range data {
				data[j] = []byte{0, 1, 0x7f, 0x80, 0xff, byte(rng.Intn(256))}[rng.Intn(6)]
			}
			m.Parts[i] = Part{Origin: i, Data: data}
			maxLen = max(maxLen, len(data))
		}
		sum := make([]byte, maxLen)
		for _, p := range m.Parts {
			for i, b := range p.Data {
				sum[i] += b
			}
		}
		want := Part{Origin: ReducedOrigin, Data: sum}
		got := fold1(m)
		if got.Tag != m.Tag || len(got.Parts) != 1 || !reflect.DeepEqual(got.Parts[0], want) {
			t.Fatalf("trial %d: fold = %+v, byte loop = %+v", trial, got.Parts, want)
		}
	}
}
