//go:build !race

package engine_test

// deadlineAllocSlack is the share by which a run with a receive deadline
// may out-allocate the same run without one (TestRecvDeadlineAllocatesNothing):
// none, as both counts are exact.
const deadlineAllocSlack = 0
