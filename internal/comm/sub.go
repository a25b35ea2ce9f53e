package comm

import (
	"fmt"
	"sort"
)

// Sub is a communicator restricted to a subset of the machine, the
// MPI_Comm_split analogue the partitioning algorithms (Part_*) need to run
// an s-to-p broadcast inside each machine half. Local ranks are the
// indices into the member list; sends and receives are forwarded to the
// parent with translated ranks.
//
// Barrier is implemented as a dissemination barrier with empty messages
// among the members (the parent's global barrier would involve processors
// outside the group). Cost accounting and iteration marking forward to the
// parent when it supports them.
type Sub struct {
	parent  Comm
	members []int
	local   int
}

var _ Comm = (*Sub)(nil)
var _ Clock = (*Sub)(nil)
var _ IterMarker = (*Sub)(nil)
var _ PhaseMarker = (*Sub)(nil)

// NewSub creates the subgroup view of parent for the calling processor.
// members must be sorted, duplicate-free global ranks and must contain the
// caller. Every member must create the Sub with an identical member list.
func NewSub(parent Comm, members []int) (*Sub, error) {
	if !sort.IntsAreSorted(members) {
		return nil, fmt.Errorf("comm: subgroup members not sorted: %v", members)
	}
	local := -1
	for i, m := range members {
		if i > 0 && members[i-1] == m {
			return nil, fmt.Errorf("comm: duplicate subgroup member %d", m)
		}
		if m < 0 || m >= parent.Size() {
			return nil, fmt.Errorf("comm: subgroup member %d outside machine of %d", m, parent.Size())
		}
		if m == parent.Rank() {
			local = i
		}
	}
	if local < 0 {
		return nil, fmt.Errorf("comm: rank %d not a member of subgroup %v", parent.Rank(), members)
	}
	return &Sub{parent: parent, members: members, local: local}, nil
}

// Rank implements Comm: the local rank within the subgroup.
func (s *Sub) Rank() int { return s.local }

// Size implements Comm: the subgroup size.
func (s *Sub) Size() int { return len(s.members) }

// Global translates a local rank to the parent's rank space.
func (s *Sub) Global(local int) int {
	if local < 0 || local >= len(s.members) {
		panic(fmt.Sprintf("comm: local rank %d outside subgroup of %d", local, len(s.members)))
	}
	return s.members[local]
}

// Send implements Comm.
func (s *Sub) Send(dst int, m Message) { s.parent.Send(s.Global(dst), m) }

// Recv implements Comm.
func (s *Sub) Recv(src int) Message { return s.parent.Recv(s.Global(src)) }

// Barrier implements Comm with a dissemination barrier over the members:
// ⌈log2 n⌉ rounds of empty-message exchanges, deadlock-free under the
// engines' buffered sends.
func (s *Sub) Barrier() {
	dissemination(len(s.members), s.local, func(to, from int) {
		s.Send(to, Message{Tag: -1})
		s.Recv(from)
	})
}

// dissemination calls round with the partners of member local in every
// round of a dissemination barrier among n members: it sends to the member
// 2^j places ahead and receives from the one 2^j places behind.
func dissemination(n, local int, round func(to, from int)) {
	for k := 1; k < n; k <<= 1 {
		round((local+k)%n, (local-k+n)%n)
	}
}

// AdvanceCombine implements Clock by forwarding to the parent.
func (s *Sub) AdvanceCombine(n int) { ChargeCombine(s.parent, n) }

// BeginIter implements IterMarker by forwarding to the parent.
func (s *Sub) BeginIter(i int) { MarkIter(s.parent, i) }

// BeginPhase implements PhaseMarker by forwarding to the parent.
func (s *Sub) BeginPhase(name string) { MarkPhase(s.parent, name) }
