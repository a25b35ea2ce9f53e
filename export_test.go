package stpbcast

// SessionLazyDials reports how many pairs a single-process TCP session
// has dialed before a run because its Links plan lacked them.
func SessionLazyDials(s *Session) int { return s.tcpM.LazyDials() }

// SessionConnsOpened reports how many connections a single-process TCP
// session has dialed, at Open and before its runs.
func SessionConnsOpened(s *Session) int { return s.tcpM.ConnsOpened() }
