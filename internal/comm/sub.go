package comm

// dissemination calls round with the partners of member local in every
// round of a dissemination barrier among n members: it sends to the member
// 2^j places ahead and receives from the one 2^j places behind. ⌈log2 n⌉
// rounds of empty-message exchanges are deadlock-free under the engines'
// buffered sends.
func dissemination(n, local int, round func(to, from int)) {
	for k := 1; k < n; k <<= 1 {
		round((local+k)%n, (local-k+n)%n)
	}
}
