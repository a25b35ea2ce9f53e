// Quickstart: run one s-to-p broadcast on a simulated 10×10 Intel Paragon
// and on a 128-processor Cray T3D, print the simulated time and the
// paper's characteristic parameters, then run the same broadcast on the
// live goroutine engine with real payload bytes and verify delivery.
package main

import (
	"fmt"
	"log"

	stpbcast "repro"
)

func main() {
	// --- Simulated timing on the Paragon model -------------------------
	paragon := stpbcast.NewParagon(10, 10)
	cfg := stpbcast.Config{
		Algorithm:    "Br_xy_source",
		Distribution: "E", // the equal distribution, 30 sources
		Sources:      30,
		MsgBytes:     4096,
	}
	res, err := stpbcast.Run(paragon, stpbcast.EngineSim, cfg, stpbcast.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Paragon 10×10, %s, E(30), L=4K:\n", cfg.Algorithm)
	fmt.Printf("  simulated time: %.3f ms\n", ms(res))
	fmt.Printf("  congestion=%d wait=%d send/rec=%d av_act_proc=%.1f\n",
		res.Params.Congestion, res.Params.Wait, res.Params.SendRec, res.Params.AvgActive)
	fmt.Printf("  active processors per iteration: %v\n\n", res.ActiveProfile)

	// --- The T3D inversion ---------------------------------------------
	t3d := stpbcast.NewT3D(128)
	for _, alg := range []string{"MPI_Alltoall", "Br_Lin"} {
		r, err := stpbcast.Run(t3d, stpbcast.EngineSim, stpbcast.Config{
			Algorithm: algT3D(alg), Distribution: "E", Sources: 40, MsgBytes: 4096,
		}, stpbcast.RunOptions{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("T3D 128, %-13s E(40), L=4K: %.3f ms\n", alg+",", ms(r))
	}
	fmt.Println("  (the personalized exchange wins on the bandwidth-rich torus)")
	fmt.Println()

	// --- Real bytes on the live engine ----------------------------------
	live, err := stpbcast.Run(paragon, stpbcast.EngineLive, cfg, stpbcast.RunOptions{Payload: func(rank int) []byte {
		return []byte(fmt.Sprintf("update-from-processor-%03d", rank))
	}})
	if err != nil {
		log.Fatal(err)
	}
	got := live.Bundles[99] // the far-corner processor
	fmt.Printf("live engine: processor 99 received %d messages in %v, e.g. %q\n",
		len(got), live.Elapsed, string(got[0]))
}

func ms(r *stpbcast.Result) float64 { return float64(r.Elapsed.Nanoseconds()) / 1e6 }

// algT3D maps the display name to the registered algorithm name.
func algT3D(name string) string {
	if name == "MPI_Alltoall" {
		return "PersAlltoAll" // the T3D cost profile is already MPI
	}
	return name
}
