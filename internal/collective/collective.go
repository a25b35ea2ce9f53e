// Package collective implements the library communication operations the
// paper's baseline algorithms are built from: gather-to-root, binomial
// one-to-all broadcast (the halving pattern of Section 2), personalized
// all-to-all exchange (XOR permutations for power-of-two machines, cyclic
// shifts otherwise, following the implementation of Hambrusch/Hameed/
// Khokhar 1995 that the paper cites), a ring all-gather, and a scatter.
//
// Every operation is written against comm.Comm, so it runs identically on
// the discrete-event simulator and the live goroutine runtime. All
// operations assume the engines' buffered-send semantics (Send never
// blocks on the receiver), which both engines provide.
package collective

import (
	"fmt"

	"repro/internal/comm"
)

// isPow2 reports whether v is a positive power of two.
func isPow2(v int) bool { return v > 0 && v&(v-1) == 0 }

// Gather collects the bundles of the given source ranks at root. Sources
// send their bundle; root receives them in ascending source order and
// returns the concatenation (its own bundle included without a self-send).
// Non-root, non-source processors return an empty message immediately.
// All processors must agree on root and sources.
func Gather(c comm.Comm, root int, sources []int, mine comm.Message) comm.Message {
	rank := c.Rank()
	isSource := false
	for _, s := range sources {
		if s == rank {
			isSource = true
			break
		}
	}
	if rank != root {
		if isSource {
			c.Send(root, mine)
		}
		return comm.Message{}
	}
	out := comm.Message{Tag: mine.Tag}.Grow(len(sources))
	for _, s := range sources {
		if s == root {
			out = out.Append(mine)
			comm.ChargeCombine(c, mine.Len())
			continue
		}
		m := c.Recv(s)
		out = out.Append(m)
		comm.ChargeCombine(c, m.Len())
	}
	return out
}

// Bcast broadcasts root's bundle to every processor along a binomial tree
// over the linear rank order — the one-to-all implementation the paper's
// 2-Step uses ("views the mesh as a linear array and applies the same
// communication pattern used in Algorithm Br_Lin"). It returns the bundle
// on every processor. Works for any p, any root.
func Bcast(c comm.Comm, root int, m comm.Message) comm.Message {
	p := c.Size()
	if p == 1 {
		return m
	}
	rel := (c.Rank() - root + p) % p
	real := func(r int) int { return (r + root) % p }
	mask := 1
	for mask < p {
		if rel&mask != 0 {
			m = c.Recv(real(rel - mask))
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for ; mask > 0; mask >>= 1 {
		if rel+mask < p {
			c.Send(real(rel+mask), m)
		}
	}
	return m
}

// AlltoallPersonalized delivers every source's bundle to every other
// processor with p−1 pairwise permutations: XOR permutations on
// power-of-two machines, cyclic shifts otherwise. Only sources transmit;
// every processor returns the concatenation of all source bundles (its own
// included). This is the paper's PersAlltoAll.
func AlltoallPersonalized(c comm.Comm, sources []int, mine comm.Message) comm.Message {
	p := c.Size()
	rank := c.Rank()
	isSource := make([]bool, p)
	for _, s := range sources {
		isSource[s] = true
	}
	// Collect parts indexed by source so the result is deterministic and
	// ordered regardless of arrival permutation.
	parts := make([]comm.Message, p)
	if isSource[rank] {
		parts[rank] = mine
	}
	for t := 1; t < p; t++ {
		comm.MarkIter(c, t-1)
		var sendTo, recvFrom int
		if isPow2(p) {
			sendTo = rank ^ t
			recvFrom = rank ^ t
		} else {
			sendTo = (rank + t) % p
			recvFrom = (rank - t + p) % p
		}
		if isSource[rank] {
			c.Send(sendTo, mine)
		}
		if isSource[recvFrom] {
			parts[recvFrom] = c.Recv(recvFrom)
		}
	}
	return concat(mine.Tag, parts)
}

// concat joins the bundles in order into one message whose part array is
// sized once.
func concat(tag int, bundles []comm.Message) comm.Message {
	n := 0
	for _, b := range bundles {
		n += len(b.Parts)
	}
	out := comm.Message{Tag: tag}.Grow(n)
	for _, b := range bundles {
		out = out.Append(b)
	}
	return out
}

// AllgatherRing is the classic ring all-gather: in p−1 steps every
// processor forwards to its successor the bundle it received in the
// previous step, starting with its own. Every processor returns the
// concatenation of all p bundles in rank order. Processors without data
// contribute an empty bundle, so the operation doubles as an s-to-p
// broadcast when only sources hold parts. Provided as the modern-MPI
// ablation of the paper's gather+broadcast MPI_AllGather.
func AllgatherRing(c comm.Comm, mine comm.Message) comm.Message {
	p := c.Size()
	rank := c.Rank()
	bundles := make([]comm.Message, p)
	bundles[rank] = mine
	next := (rank + 1) % p
	prev := (rank - 1 + p) % p
	cur := mine
	for t := 0; t < p-1; t++ {
		comm.MarkIter(c, t)
		c.Send(next, cur)
		cur = c.Recv(prev)
		bundles[(rank-t-1+p)%p] = cur
	}
	return concat(mine.Tag, bundles)
}

// AllgatherRecDoubling is the recursive-doubling all-gather (the classic
// MPICH algorithm): in round k every processor exchanges its accumulated
// bundle with the partner at XOR-distance 2^k, so after ⌈log2 p⌉ rounds
// every processor holds every source bundle. With sparse sources the
// exchange degenerates to a single send (or nothing) whenever one (or
// both) sides hold no messages yet — every processor derives the holder
// evolution locally from the known source positions.
//
// On power-of-two machines this is exact recursive doubling; other sizes
// fall back to the ring all-gather (same asymptotic volume, correct for
// every p). The paper's T3D machines are all powers of two.
func AllgatherRecDoubling(c comm.Comm, sources []int, mine comm.Message) comm.Message {
	p := c.Size()
	rank := c.Rank()
	if p == 1 {
		return mine
	}
	if !isPow2(p) {
		// Non-power-of-two fallback: the ring all-gather is correct for
		// any p and has the same asymptotic volume.
		return AllgatherRing(c, mine)
	}
	// groupCount[g] at round k = number of sources in the 2^k-aligned
	// group g; evolves identically on every processor.
	count := make([]int, p)
	for _, s := range sources {
		count[s]++
	}
	bundle := mine.Grow(len(sources))
	iter := 0
	for dist := 1; dist < p; dist <<= 1 {
		comm.MarkIter(c, iter)
		iter++
		partner := rank ^ dist
		myBase := rank &^ (dist - 1)
		partnerBase := partner &^ (dist - 1)
		myCount := groupSum(count, myBase, dist)
		partnerCount := groupSum(count, partnerBase, dist)
		if myCount > 0 {
			c.Send(partner, bundle)
		}
		if partnerCount > 0 {
			// The 1996-era library packs the received blocks into the
			// accumulated buffer before the next round; charge the copy.
			m := c.Recv(partner)
			comm.ChargeCombine(c, m.Len())
			bundle = bundle.Append(m)
		}
	}
	return bundle
}

func groupSum(count []int, base, width int) int {
	total := 0
	for i := base; i < base+width && i < len(count); i++ {
		total += count[i]
	}
	return total
}

// Scatter sends the i-th of root's bundles to processor i and returns the
// bundle this processor received (root keeps its own without a self-send).
// bundles is only read on root; its length must equal p.
func Scatter(c comm.Comm, root int, bundles []comm.Message) comm.Message {
	p := c.Size()
	rank := c.Rank()
	if rank == root {
		if len(bundles) != p {
			panic(fmt.Sprintf("collective: Scatter root has %d bundles for %d processors", len(bundles), p))
		}
		for r := 0; r < p; r++ {
			if r == root {
				continue
			}
			c.Send(r, bundles[r])
		}
		return bundles[root]
	}
	return c.Recv(root)
}

// CircularShift rotates bundles around the rank ring: every processor
// sends its bundle to (rank+k) mod p and returns the bundle received from
// (rank−k) mod p. One of the coarse-grained mesh operations of the
// substrate library the paper builds on (Hambrusch/Hameed/Khokhar 1995).
// k may be negative or exceed p; k ≡ 0 (mod p) is a no-op.
func CircularShift(c comm.Comm, k int, mine comm.Message) comm.Message {
	p := c.Size()
	k = ((k % p) + p) % p
	if k == 0 {
		return mine
	}
	rank := c.Rank()
	c.Send((rank+k)%p, mine)
	return c.Recv((rank - k + p) % p)
}

// Transpose exchanges bundles across the main diagonal of an n×n mesh:
// processor (i,j) ends with (j,i)'s bundle; diagonal processors keep
// their own. Ranks are row-major. Another substrate operation of the
// 1995 library (matrix transposition on coarse-grained meshes).
func Transpose(c comm.Comm, n int, mine comm.Message) comm.Message {
	if n*n != c.Size() {
		panic(fmt.Sprintf("collective: Transpose needs a square mesh, got n=%d for p=%d", n, c.Size()))
	}
	rank := c.Rank()
	i, j := rank/n, rank%n
	if i == j {
		return mine
	}
	return comm.Exchange(c, j*n+i, mine)
}
