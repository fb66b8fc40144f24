package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one recorded interval around a call the harness makes into a
// layer. Times are nanoseconds since the recorder was created; Parent
// is the index of the span that caused this one (-1 for the run span).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Run    string `json:"run"`
}

// recorder keeps spans in memory until the run ends. The ladder is
// single-threaded, so there is no lock; a nil recorder records nothing,
// which is how the untraced pass runs the same code.
type recorder struct {
	run   string
	t0    time.Time
	spans []span
}

func newRecorder(run string) *recorder {
	return &recorder{run: run, t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span under parent and returns its index; -1 on a nil
// recorder.
func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Start: int64(time.Since(r.t0)), Parent: parent, Run: r.run})
	return len(r.spans) - 1
}

// end closes the span.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id].End = int64(time.Since(r.t0))
}

// writeFile writes every span as one JSON document.
func (r *recorder) writeFile(path string) error {
	data, err := json.Marshal(struct {
		Run   string `json:"run"`
		Spans []span `json:"spans"`
	}{r.run, r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns, per span, its duration minus the part of that
// interval its child spans cover. Children recorded by one goroutine
// never overlap, so the covered part is the sum of their durations
// clipped to the parent.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
	}
	for _, s := range spans {
		if s.Parent < 0 {
			continue
		}
		p := spans[s.Parent]
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			self[s.Parent] -= hi - lo
		}
	}
	return self
}

// layerTimes attributes time to the layer under test for each child
// span of a rung (its batches): when a batch has request spans under
// it, the layer's time is the sum of those requests' self times and the
// batch's own self time is the harness's loop; a batch without children
// spent all of its self time inside the layer. Returned per batch, in
// order.
func layerTimes(spans []span, rung int) []int64 {
	self := selfTimes(spans)
	var batches []int
	index := map[int]int{}
	for i, s := range spans {
		if s.Parent == rung {
			index[i] = len(batches)
			batches = append(batches, i)
		}
	}
	covered := make([]int64, len(batches))
	hasChild := make([]bool, len(batches))
	for i, s := range spans {
		if b, ok := index[s.Parent]; ok {
			covered[b] += self[i]
			hasChild[b] = true
		}
	}
	out := make([]int64, len(batches))
	for b, i := range batches {
		if hasChild[b] {
			out[b] = covered[b]
		} else {
			out[b] = self[i]
		}
	}
	return out
}
