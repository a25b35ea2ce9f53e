//go:build race

package engine_test

// deadlineAllocSlack under the race detector, whose sync.Pool drops a
// random quarter of what is put back: the sockets' least-of-rounds
// counts then wander by a few allocations either way (117–124 for the
// same run), so the two may differ by up to 5 %.
const deadlineAllocSlack = 0.05
