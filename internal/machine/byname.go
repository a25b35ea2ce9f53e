package machine

import (
	"fmt"
	"strings"
)

// maxByName caps the machines ByName builds, at four times the largest
// one the repository builds (256). A request's size is outside input
// (the daemon maps every broadcast body through it), and the real-byte
// engines grow as p² (a live machine keeps p inboxes of p queues, a TCP
// rank a p-slot conn table), so a cap in the tens of thousands let one
// request ask for hundreds of gigabytes.
const maxByName = 1024

// ByName is the facade's NewMachineByName: the machine a CLI name and a
// logical mesh ask for, its errors worded as the facade's.
func ByName(kind string, rows, cols int) (*Machine, error) {
	kind, dim, err := resolve(kind, rows, cols)
	if err != nil {
		return nil, err
	}
	switch kind {
	case "paragon-mpi":
		return ParagonMPI(rows, cols), nil
	case "t3d":
		return T3D(rows * cols), nil
	case "hypercube":
		return HypercubeNX(dim), nil
	}
	return Paragon(rows, cols), nil
}

// CheckByName returns the error ByName would return for the same
// arguments, nil when it would build the machine, and builds nothing.
func CheckByName(kind string, rows, cols int) error {
	_, _, err := resolve(kind, rows, cols)
	return err
}

// resolve validates a ByName request: its canonical kind and, for a
// hypercube, the dimension.
func resolve(kind string, rows, cols int) (string, int, error) {
	if rows < 1 || cols < 1 {
		return "", 0, fmt.Errorf("stpbcast: invalid machine size %d×%d (rows and cols must be positive)", rows, cols)
	}
	// Both factors at most the cap keeps the product from overflowing.
	if rows > maxByName || cols > maxByName || rows*cols > maxByName {
		return "", 0, fmt.Errorf("stpbcast: machine size %d×%d exceeds %d processors", rows, cols, maxByName)
	}
	switch kind = strings.ToLower(kind); kind {
	case "paragon", "", "paragon-mpi", "t3d":
		return kind, 0, nil
	case "hypercube":
		p := rows * cols
		dim := 0
		for 1<<dim < p {
			dim++
		}
		if 1<<dim != p {
			return "", 0, fmt.Errorf("stpbcast: hypercube needs a power-of-two processor count, got %d×%d = %d", rows, cols, p)
		}
		return kind, dim, nil
	}
	return "", 0, fmt.Errorf("stpbcast: unknown machine %q (want paragon, paragon-mpi, t3d or hypercube)", kind)
}
