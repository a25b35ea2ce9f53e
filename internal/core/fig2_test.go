package core

import (
	"fmt"
	"math/bits"
	"testing"

	"repro/internal/comm"
	"repro/internal/dist"
)

// TestFig2Asymptotics checks the paper's Figure-2 rows as a sweep, not a
// formula: the static profile (comm.Program.Facts) of 2-Step, PersAlltoAll
// and Br_Lin compiled for E(s) on p = 16, 64 and 256 processors, for every
// s of the sweep, with no simulation. The constants are the programs'
// own; a failure is named fig2/<alg>/<r>x<c>/E(<s>)/<param>.
func TestFig2Asymptotics(t *testing.T) {
	rows := []struct {
		alg   Algorithm
		param string
		// check returns the parameter's value, the bound it must meet at
		// (p, s), and whether it does.
		check func(st *comm.Facts, p, s int) (int, string, bool)
	}{
		// O(s): the gather root, itself a source, receives the other s−1
		// messages in one iteration; below ⌈log₂p⌉ the binomial
		// broadcast's root sends dominate.
		{TwoStep(), "congestion", func(st *comm.Facts, p, s int) (int, string, bool) {
			want := max(s-1, log2Ceil(p))
			return st.Congestion, fmt.Sprintf("= max(s−1, ⌈log₂p⌉) = %d", want), st.Congestion == want
		}},
		// O(1): one exchange per iteration, or one send or receive.
		{PersAlltoAll(), "congestion", func(st *comm.Facts, _, _ int) (int, string, bool) {
			return st.Congestion, "≤ 2", st.Congestion <= 2
		}},
		{BrLin(), "congestion", func(st *comm.Facts, _, _ int) (int, string, bool) {
			return st.Congestion, "≤ 2", st.Congestion <= 2
		}},
		// O(p): every processor exchanges with every other one.
		{PersAlltoAll(), "send/rec", func(st *comm.Facts, p, _ int) (int, string, bool) {
			return st.SendRec, fmt.Sprintf("≥ p−1 = %d", p-1), st.SendRec >= p-1
		}},
		// O(log p): at most one exchange in each of ⌈log₂p⌉ iterations.
		{BrLin(), "send/rec", func(st *comm.Facts, p, _ int) (int, string, bool) {
			return st.SendRec, fmt.Sprintf("≤ 2⌈log₂p⌉ = %d", 2*log2Ceil(p)), st.SendRec <= 2*log2Ceil(p)
		}},
	}
	sweep := []int{1, 2, 3, 4, 5, 8, 15, 16, 17, 32, 60, 64, 100, 128, 200, 255, 256}
	for _, n := range []int{4, 8, 16} {
		p := n * n
		for _, s := range sweep {
			if s > p {
				break
			}
			spec := makeSpec(t, dist.Equal(), n, n, s)
			profiles := map[string]*comm.Facts{}
			for _, row := range rows {
				name := row.alg.Name()
				st, ok := profiles[name]
				if !ok {
					st = staticOf(t, row.alg, spec)
					profiles[name] = st
				}
				if got, want, ok := row.check(st, p, s); !ok {
					t.Errorf("fig2/%s/%dx%d/E(%d)/%s: %d, want %s", name, n, n, s, row.param, got, want)
				}
			}
		}
	}
}

// log2Ceil is ⌈log₂n⌉.
func log2Ceil(n int) int { return bits.Len(uint(n - 1)) }
