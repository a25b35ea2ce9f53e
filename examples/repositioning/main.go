// Repositioning in action: Section 3's answer to distribution-dependent
// performance. The example places 64 sources in the paper's difficult
// patterns on a 16×16 Paragon, draws the before/after source maps, and
// prints the gain of Repos_xy_source over Br_xy_source for each — the
// Figure 9 experiment at one source count, with pictures.
package main

import (
	"fmt"
	"log"

	stpbcast "repro"
	"repro/internal/dist"
)

const (
	rows, cols = 16, 16
	s          = 64
	msgBytes   = 6 * 1024
)

func main() {
	machine := stpbcast.NewParagon(rows, cols)

	// The ideal target Repos_xy_source generates on this machine.
	ideal, err := dist.IdealRows().Sources(rows, cols, s)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ideal target of Repos_xy_source on %d×%d (%d sources):\n%s\n",
		rows, cols, s, dist.Render(rows, cols, ideal))

	fmt.Printf("%-6s %14s %18s %10s\n", "dist", "Br_xy_source", "Repos_xy_source", "gain")
	for _, d := range stpbcast.Distributions() {
		plain, err := stpbcast.Run(machine, stpbcast.EngineSim, stpbcast.Config{
			Algorithm: "Br_xy_source", Distribution: d.Name(), Sources: s, MsgBytes: msgBytes,
		}, stpbcast.RunOptions{})
		if err != nil {
			log.Fatal(err)
		}
		repos, err := stpbcast.Run(machine, stpbcast.EngineSim, stpbcast.Config{
			Algorithm: "Repos_xy_source", Distribution: d.Name(), Sources: s, MsgBytes: msgBytes,
		}, stpbcast.RunOptions{})
		if err != nil {
			log.Fatal(err)
		}
		pm, rm := ms(plain), ms(repos)
		fmt.Printf("%-6s %12.2fms %16.2fms %+9.1f%%\n", d.Name(), pm, rm, (pm-rm)/pm*100)
	}

	fmt.Println("\nhard patterns (cross, square block) gain the most; near-ideal")
	fmt.Println("patterns pay only the 1–2 ms permutation — the paper's conclusion")
	fmt.Println("that repositioning should be the default on the Paragon")

	// Show what the permutation does to the square block.
	sq, err := stpbcast.DistributionByName("Sq")
	if err != nil {
		log.Fatal(err)
	}
	before, err := sq.Sources(rows, cols, s)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nSq(%d) before repositioning:\n%s", s, dist.Render(rows, cols, before))
	fmt.Printf("\nafter repositioning (ideal rows):\n%s", dist.Render(rows, cols, ideal))
}

func ms(r *stpbcast.Result) float64 { return float64(r.Elapsed.Nanoseconds()) / 1e6 }
