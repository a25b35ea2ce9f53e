// Dynamic load balancing for a distributed spatial data structure — the
// paper's second motivating application (Hambrusch & Khokhar, "Maintaining
// spatial data sets in distributed-memory machines").
//
// Each of 64 processors owns a region of a global quadtree-like directory
// and tracks its local load. When a processor's load crosses a split
// threshold it splits its region and must broadcast the directory update
// (region id, new boundary, new owner) to every processor, because lookups
// are routed by a replicated directory. The number and position of
// splitting processors is workload-dependent and not known in advance:
// exactly the s-to-p broadcasting problem.
//
// The example runs on the live engine — real goroutines, real bytes — and
// verifies that all 64 replicas of the directory are identical after every
// balancing phase. It then reports, on the simulated Paragon, what each
// phase's broadcast would have cost with and without repositioning.
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"math/rand"
	"sort"

	stpbcast "repro"
)

const (
	rows, cols = 8, 8
	p          = rows * cols
	phases     = 4
	splitLoad  = 140.0
)

// update is one directory record a splitting processor broadcasts.
type update struct {
	Region   uint32
	Boundary uint32
	NewOwner uint32
}

func encode(u update) []byte {
	buf := make([]byte, 12)
	binary.BigEndian.PutUint32(buf[0:], u.Region)
	binary.BigEndian.PutUint32(buf[4:], u.Boundary)
	binary.BigEndian.PutUint32(buf[8:], u.NewOwner)
	return buf
}

func decode(b []byte) update {
	return update{
		Region:   binary.BigEndian.Uint32(b[0:]),
		Boundary: binary.BigEndian.Uint32(b[4:]),
		NewOwner: binary.BigEndian.Uint32(b[8:]),
	}
}

func main() {
	rng := rand.New(rand.NewSource(7))
	load := make([]float64, p)
	for i := range load {
		load[i] = 60 + 50*rng.Float64()
	}

	machine := stpbcast.NewParagon(rows, cols)
	for phase := 0; phase < phases; phase++ {
		// Skewed insertions concentrate load in a band of regions — the
		// clustered splitter patterns the paper's distributions model.
		for i := 0; i < 600; i++ {
			r := int(rng.NormFloat64()*6+float64(8*phase)) % p
			if r < 0 {
				r += p
			}
			load[r] += 1.5
		}
		var splitters []int
		for i, l := range load {
			if l > splitLoad {
				splitters = append(splitters, i)
			}
		}
		sort.Ints(splitters)
		if len(splitters) == 0 {
			fmt.Printf("phase %d: no splits\n", phase)
			continue
		}

		// Broadcast the directory updates on the live engine and verify
		// replica consistency.
		cfg := stpbcast.Config{Algorithm: "Br_xy_source", SourceRanks: splitters, MsgBytes: 12}
		res, err := stpbcast.Run(machine, stpbcast.EngineLive, cfg, stpbcast.RunOptions{Payload: func(rank int) []byte {
			return encode(update{
				Region:   uint32(rank),
				Boundary: uint32(1000*rank + phase),
				NewOwner: uint32((rank + 1) % p),
			})
		}})
		if err != nil {
			log.Fatal(err)
		}
		reference := directoryOf(res.Bundles[0])
		for rank := 1; rank < p; rank++ {
			if got := directoryOf(res.Bundles[rank]); got != reference {
				log.Fatalf("phase %d: replica %d diverged: %q vs %q", phase, rank, got, reference)
			}
		}

		// Price the same broadcast on the simulated machine.
		plain, err := stpbcast.Run(machine, stpbcast.EngineSim, stpbcast.Config{
			Algorithm: "Br_xy_source", SourceRanks: splitters, MsgBytes: 12,
		}, stpbcast.RunOptions{})
		if err != nil {
			log.Fatal(err)
		}
		repos, err := stpbcast.Run(machine, stpbcast.EngineSim, stpbcast.Config{
			Algorithm: "Repos_xy_source", SourceRanks: splitters, MsgBytes: 12,
		}, stpbcast.RunOptions{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("phase %d: %2d splitters, replicas consistent; simulated broadcast %.3f ms (repositioned %.3f ms)\n",
			phase, len(splitters), msOf(plain), msOf(repos))

		// Splitting halves the splitter loads.
		for _, r := range splitters {
			load[r] /= 2
		}
	}
	fmt.Println("directory replicated consistently through all balancing phases")
}

// directoryOf canonicalizes a received bundle into a comparable string.
func directoryOf(bundle map[int][]byte) string {
	origins := make([]int, 0, len(bundle))
	for o := range bundle {
		origins = append(origins, o)
	}
	sort.Ints(origins)
	out := ""
	for _, o := range origins {
		u := decode(bundle[o])
		out += fmt.Sprintf("[%d:%d→%d]", u.Region, u.Boundary, u.NewOwner)
	}
	return out
}

func msOf(r *stpbcast.Result) float64 { return float64(r.Elapsed.Nanoseconds()) / 1e6 }
