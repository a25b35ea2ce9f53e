package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/network"
	"repro/internal/obs"
)

// chromeEvent is one entry of the Chrome trace-event format (the JSON
// Perfetto and chrome://tracing load). Only the fields this exporter uses
// are modeled.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   int            `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeFile is the top-level object.
type chromeFile struct {
	TraceEvents     []chromeEvent  `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData,omitempty"`
}

// usec converts an engine timestamp (virtual or wall nanoseconds) to the
// Chrome trace microsecond unit.
func usec(t network.Time) float64 { return float64(t) / 1e3 }

// WriteChrome exports events in Chrome trace-event format, loadable in
// Perfetto (ui.perfetto.dev) or chrome://tracing:
//
//   - one track (thread) per rank, named "rank N";
//   - duration slices for send, recv, wait and combine events, with
//     bytes/tag/iteration/phase in the slice args;
//   - a flow arrow from each send slice to the matching recv slice
//     (messages on a (src, dst) link are FIFO in every engine, so the
//     k-th send to a peer matches the k-th receive from it);
//   - instant events for barriers and injected faults;
//   - a per-iteration counter track ("iter bytes"/"iter sends") — the
//     link-utilization time series of the run.
//
// Simulated runs are placed on the virtual clock, live/tcp runs on the
// wall clock (auto-detected via obs.HasWall). name labels the process
// ("sim", "live", "tcp"). dropped, when positive, records in the file
// metadata that the recorder truncated the stream.
func WriteChrome(w io.Writer, name string, events []obs.Event, dropped int) error {
	wall := obs.HasWall(events)
	out := chromeFile{DisplayTimeUnit: "ms"}
	if name == "" {
		name = "run"
	}
	out.TraceEvents = append(out.TraceEvents, chromeEvent{
		Name: "process_name", Ph: "M", Pid: 0,
		Args: map[string]any{"name": name},
	})
	if dropped > 0 {
		out.OtherData = map[string]any{"truncated": true, "droppedEvents": dropped}
	}

	// Thread-name metadata for every rank that appears, in rank order.
	ranks := map[int]bool{}
	for _, e := range events {
		ranks[e.Rank] = true
	}
	order := make([]int, 0, len(ranks))
	for r := range ranks {
		order = append(order, r)
	}
	sort.Ints(order)
	for _, r := range order {
		out.TraceEvents = append(out.TraceEvents,
			chromeEvent{Name: "thread_name", Ph: "M", Pid: 0, Tid: r,
				Args: map[string]any{"name": fmt.Sprintf("rank %d", r)}},
			chromeEvent{Name: "thread_sort_index", Ph: "M", Pid: 0, Tid: r,
				Args: map[string]any{"sort_index": r}})
	}

	// Flow bookkeeping: sends push ids per (src, dst), receives pop —
	// FIFO per link in every engine.
	flows := map[[2]int][]int{}
	nextFlow := 1

	for _, e := range events {
		end := usec(e.End(wall))
		start := usec(e.Start(wall))
		args := map[string]any{"iter": e.Iter}
		if e.Bytes > 0 {
			args["bytes"] = e.Bytes
		}
		if e.Parts > 0 {
			args["parts"] = e.Parts
		}
		if e.Tag != 0 {
			args["tag"] = e.Tag
		}
		if e.Phase != "" {
			args["phase"] = e.Phase
		}
		switch e.Kind {
		case obs.KindSend:
			args["to"] = e.Peer
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: "send", Cat: "comm", Ph: "X", Ts: start, Dur: end - start,
				Pid: 0, Tid: e.Rank, Args: args,
			})
			id := nextFlow
			nextFlow++
			key := [2]int{e.Rank, e.Peer}
			flows[key] = append(flows[key], id)
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: "msg", Cat: "comm", Ph: "s", Ts: start, Pid: 0, Tid: e.Rank, ID: id,
			})
		case obs.KindRecv:
			args["from"] = e.Peer
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: "recv", Cat: "comm", Ph: "X", Ts: start, Dur: end - start,
				Pid: 0, Tid: e.Rank, Args: args,
			})
			key := [2]int{e.Peer, e.Rank}
			if q := flows[key]; len(q) > 0 {
				out.TraceEvents = append(out.TraceEvents, chromeEvent{
					Name: "msg", Cat: "comm", Ph: "f", BP: "e", Ts: start,
					Pid: 0, Tid: e.Rank, ID: q[0],
				})
				flows[key] = q[1:]
			}
		case obs.KindWait:
			args["on"] = e.Peer
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: "wait", Cat: "wait", Ph: "X", Ts: start, Dur: end - start,
				Pid: 0, Tid: e.Rank, Args: args,
			})
		case obs.KindCombine:
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: "combine", Cat: "compute", Ph: "X", Ts: start, Dur: end - start,
				Pid: 0, Tid: e.Rank, Args: args,
			})
		case obs.KindBarrier:
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: "barrier", Cat: "sync", Ph: "i", Ts: end, Pid: 0, Tid: e.Rank,
				S: "t", Args: args,
			})
		case obs.KindFault:
			args["seq"] = e.Seq
			if e.Peer >= 0 {
				args["link"] = fmt.Sprintf("%d->%d", e.Rank, e.Peer)
			}
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: "fault:" + e.Fault, Cat: "fault", Ph: "i", Ts: end,
				Pid: 0, Tid: e.Rank, S: "t", Args: args,
			})
		default:
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: e.Kind, Ph: "i", Ts: end, Pid: 0, Tid: e.Rank, S: "t", Args: args,
			})
		}
	}

	// Per-iteration counter track: the link-utilization series.
	for _, it := range IterSeries(events) {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "iter bytes", Ph: "C", Ts: usec(it.Start), Pid: 0,
			Args: map[string]any{"bytes": it.Bytes},
		}, chromeEvent{
			Name: "iter sends", Ph: "C", Ts: usec(it.Start), Pid: 0,
			Args: map[string]any{"sends": it.Sends},
		})
	}

	enc := json.NewEncoder(w)
	if err := enc.Encode(out); err != nil {
		return fmt.Errorf("trace: encoding chrome trace: %w", err)
	}
	return nil
}

// WriteChrome exports the retained events (see the package-level
// WriteChrome); a capped trace is flagged as truncated in the metadata.
func (r *Recorder) WriteChrome(w io.Writer, name string) error {
	return WriteChrome(w, name, r.Events, r.Dropped())
}

// IterStat aggregates one algorithm iteration across all ranks: the
// per-iteration traffic volume behind the paper's av_msg_lgth and
// congestion parameters, viewed as a time series.
type IterStat struct {
	Iter         int
	Sends, Recvs int
	Waits        int
	Faults       int
	Bytes        int64        // payload bytes sent this iteration
	WaitTime     network.Time // summed wait durations
	Start, End   network.Time // event-timestamp span of the iteration
}

// Rate returns the iteration's send-byte throughput in bytes per second
// of its native clock (virtual for sim, wall for live/tcp) — the
// link-utilization series `stpbench trace -iters` prints.
func (s IterStat) Rate() float64 {
	if s.End <= s.Start {
		return 0
	}
	return float64(s.Bytes) / (float64(s.End-s.Start) / 1e9)
}

// IterSeries folds an event stream into per-iteration statistics, ordered
// by iteration. Events before the first BeginIter (Iter < 0) are skipped.
func IterSeries(events []obs.Event) []IterStat {
	wall := obs.HasWall(events)
	byIter := map[int]*IterStat{}
	for _, e := range events {
		if e.Iter < 0 {
			continue
		}
		st := byIter[e.Iter]
		if st == nil {
			st = &IterStat{Iter: e.Iter, Start: e.Start(wall)}
			byIter[e.Iter] = st
		}
		if t := e.Start(wall); t < st.Start {
			st.Start = t
		}
		if t := e.End(wall); t > st.End {
			st.End = t
		}
		switch e.Kind {
		case obs.KindSend:
			st.Sends++
			st.Bytes += int64(e.Bytes)
		case obs.KindRecv:
			st.Recvs++
		case obs.KindWait:
			st.Waits++
			st.WaitTime += e.Dur
		case obs.KindFault:
			st.Faults++
		}
	}
	out := make([]IterStat, 0, len(byIter))
	for _, st := range byIter {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Iter < out[j].Iter })
	return out
}

// ChromeStats summarizes a validated Chrome trace file.
type ChromeStats struct {
	Slices   int // ph "X" duration events
	Instants int // ph "i" events
	Flows    int // matched s→f flow pairs
	Counters int // ph "C" events
	Ranks    int // distinct tids with slices or instants
}

// ValidateChrome parses a Chrome trace file produced by WriteChrome and
// checks the structural schema: a traceEvents array whose entries carry a
// known phase, non-negative timestamps, non-negative durations on slices,
// and flow starts matched by flow finishes with the same id. It returns
// summary statistics for further assertions.
func ValidateChrome(data []byte) (ChromeStats, error) {
	var f chromeFile
	if err := json.Unmarshal(data, &f); err != nil {
		return ChromeStats{}, fmt.Errorf("trace: chrome file does not parse: %w", err)
	}
	if len(f.TraceEvents) == 0 {
		return ChromeStats{}, fmt.Errorf("trace: chrome file has no traceEvents")
	}
	var st ChromeStats
	ranks := map[int]bool{}
	starts := map[int]int{}
	finishes := map[int]int{}
	for i, e := range f.TraceEvents {
		if e.Name == "" {
			return st, fmt.Errorf("trace: event %d has no name", i)
		}
		if e.Ts < 0 {
			return st, fmt.Errorf("trace: event %d (%s) has negative ts %v", i, e.Name, e.Ts)
		}
		switch e.Ph {
		case "X":
			if e.Dur < 0 {
				return st, fmt.Errorf("trace: slice %d (%s) has negative dur %v", i, e.Name, e.Dur)
			}
			st.Slices++
			ranks[e.Tid] = true
		case "i":
			st.Instants++
			ranks[e.Tid] = true
		case "s":
			if e.ID == 0 {
				return st, fmt.Errorf("trace: flow start %d has no id", i)
			}
			starts[e.ID]++
		case "f":
			if e.ID == 0 {
				return st, fmt.Errorf("trace: flow finish %d has no id", i)
			}
			finishes[e.ID]++
		case "C":
			st.Counters++
		case "M":
			// metadata
		default:
			return st, fmt.Errorf("trace: event %d (%s) has unknown phase %q", i, e.Name, e.Ph)
		}
	}
	for id, n := range finishes {
		if starts[id] < n {
			return st, fmt.Errorf("trace: flow id %d finishes %d times but starts %d", id, n, starts[id])
		}
	}
	for id, n := range starts {
		if m := finishes[id]; m > 0 {
			if m != n {
				return st, fmt.Errorf("trace: flow id %d starts %d times, finishes %d", id, n, m)
			}
			st.Flows += n
		}
	}
	st.Ranks = len(ranks)
	return st, nil
}

// ValidateJSONL parses a JSON-lines event dump produced by WriteJSON and
// returns the number of event lines (the trailing truncation note, if
// present, is validated but not counted).
func ValidateJSONL(data []byte) (int, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	n := 0
	for dec.More() {
		var e obs.Event
		if err := dec.Decode(&e); err != nil {
			return n, fmt.Errorf("trace: jsonl line %d does not parse: %w", n+1, err)
		}
		if e.Kind == "" {
			return n, fmt.Errorf("trace: jsonl line %d has no kind", n+1)
		}
		if e.Kind == "truncated" {
			continue
		}
		n++
	}
	return n, nil
}
