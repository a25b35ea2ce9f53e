package stpbcast_test

import (
	"testing"

	stpbcast "repro"
)

// FuzzConfigRun builds a Config from fuzzed fields on a Paragon mesh of
// at most 8×8: the collective, the algorithm (any collective's registry
// name, Auto, or junk), the distribution, source count and source
// ranks, a capped message size and the indexing. Whenever Validate accepts the config,
// a simulated Run must return a result or an error — never panic, and
// never both or neither.
func FuzzConfigRun(f *testing.F) {
	colls := stpbcast.Collectives()
	names := []string{stpbcast.AutoAlgorithm, ""}
	for _, coll := range colls {
		for _, a := range stpbcast.AlgorithmsFor(coll) {
			names = append(names, a.Name())
		}
	}
	// first is the index, among names, of coll's first registry entry.
	first := func(coll stpbcast.Collective) uint8 {
		name := stpbcast.AlgorithmsFor(coll)[0].Name()
		for i, n := range names {
			if n == name {
				return uint8(i)
			}
		}
		f.Fatalf("%s's algorithm %s is not registered", coll, name)
		return 0
	}
	// One valid config per collective — Broadcast under Auto, the others
	// under their first algorithm — then the known-bad shapes.
	f.Add(uint8(0), uint8(0), "", "E", 4, []byte(nil), uint16(1024), uint8(4), uint8(4), false)
	f.Add(uint8(1), first(colls[1]), "", "", 0, []byte(nil), uint16(64), uint8(3), uint8(5), false)
	f.Add(uint8(2), first(colls[2]), "", "", 0, []byte{0, 7}, uint16(100), uint8(4), uint8(2), true)
	f.Add(uint8(3), first(colls[3]), "", "", 1, []byte{5}, uint16(16), uint8(2), uint8(4), false)
	f.Add(uint8(4), first(colls[4]), "", "", 0, []byte(nil), uint16(32), uint8(8), uint8(8), false)
	f.Add(uint8(5), first(colls[5]), "", "", 0, []byte(nil), uint16(8), uint8(1), uint8(7), false)
	f.Add(uint8(3), uint8(0), "", "", 2, []byte(nil), uint16(16), uint8(2), uint8(4), false)              // Scatter with 2 sources
	f.Add(uint8(4), uint8(0), "", "E", 0, []byte(nil), uint16(32), uint8(4), uint8(4), false)             // AllGather with a distribution
	f.Add(uint8(0), first(colls[0]), "", "", 0, []byte{3, 200}, uint16(64), uint8(2), uint8(2), false)    // a source rank out of range
	f.Add(uint8(9), uint8(255), "Br_Nope", "Zz", -3, []byte{1, 255}, uint16(0), uint8(0), uint8(9), true) // junk everywhere
	f.Fuzz(func(t *testing.T, coll, alg uint8, junk, distribution string, sources int, ranks []byte, msgBytes uint16, rows, cols uint8, rowMajor bool) {
		cfg := stpbcast.Config{
			Collective:   "Gossip", // not a collective: any index past the list
			Algorithm:    junk,
			Distribution: distribution,
			Sources:      sources,
			MsgBytes:     int(msgBytes % 4097),
			RowMajor:     rowMajor,
		}
		if int(coll) < len(colls) {
			cfg.Collective = colls[coll]
		}
		if int(alg) < len(names) {
			cfg.Algorithm = names[alg]
		}
		if ranks != nil {
			// Byte 255 stands for -1; anything past the mesh stays out of range.
			cfg.SourceRanks = make([]int, len(ranks))
			for i, r := range ranks {
				cfg.SourceRanks[i] = int(r)
				if r == 255 {
					cfg.SourceRanks[i] = -1
				}
			}
		}
		if cfg.Validate() != nil {
			return
		}
		m := stpbcast.NewParagon(1+(int(rows)+7)%8, 1+(int(cols)+7)%8)
		res, err := stpbcast.Run(m, stpbcast.EngineSim, cfg, stpbcast.RunOptions{})
		if (res == nil) == (err == nil) {
			t.Fatalf("Run(%+v) on %d×%d = %v, %v: want exactly one of a result and an error", cfg, m.Rows, m.Cols, res, err)
		}
	})
}
