package main

import "time"

// span is one timed interval of a benchmark run. IDs are unique within one
// process; Parent is 0 for a root. Times are nanoseconds since the Unix
// epoch, so spans from the parent and its children line up.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// spanRecorder keeps spans in memory; the run writes them out when it
// ends. It is used from one goroutine.
type spanRecorder struct {
	spans []span
}

// start opens a span and returns its ID.
func (r *spanRecorder) start(name string, parent int) int {
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, StartNS: time.Now().UnixNano()})
	return id
}

func (r *spanRecorder) end(id int) {
	r.spans[id-1].EndNS = time.Now().UnixNano()
}
