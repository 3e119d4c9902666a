package main

import (
	"fmt"
	"strings"
	"time"
)

// span is one recorded interval. Spans of one request share its trace id;
// a backend batch serves several requests, so it is parented to the first
// and lists the traces of all of them.
type span struct {
	Trace   int64   `json:"trace"`
	ID      int64   `json:"span"`
	Parent  int64   `json:"parent,omitempty"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
	Serves  []int64 `json:"serves,omitempty"`
	Failed  bool    `json:"failed,omitempty"`
}

// selfTime is one layer's row of the self-time table: the mean time per
// request spent in the layer and not in a layer below it.
type selfTime struct {
	Layer   string  `json:"layer"`
	MeanMS  float64 `json:"mean_ms"`
	SharePc float64 `json:"share_pct"`
}

// buildSpans turns the traced nominal window into spans and a self-time
// table. Each request gets a "loadgen.request" span from its scheduled
// send time to its answer and a "serve.<entry>" child around the gateway
// call; each backend batch becomes a "cluster.infer" span under the
// requests whose rows it carried.
func buildSpans(recs []*record, batches []batchSpan, entry string) ([]span, []selfTime) {
	if len(recs) == 0 {
		return nil, nil
	}
	origin := recs[0].sched
	at := func(t time.Time) float64 { return float64(t.Sub(origin)) / float64(time.Microsecond) }

	byIdx := map[int][]int{}
	for i, r := range recs {
		byIdx[r.idx] = append(byIdx[r.idx], i)
	}
	inBackend := make([]time.Duration, len(recs))
	spans := make([]span, 0, 2*len(recs)+len(batches))
	for i, r := range recs {
		trace := int64(i + 1)
		spans = append(spans,
			span{Trace: trace, ID: 2*trace - 1, Name: "loadgen.request", StartUS: at(r.sched), EndUS: at(r.end)},
			span{Trace: trace, ID: 2 * trace, Parent: 2*trace - 1, Name: "serve." + entry, StartUS: at(r.call), EndUS: at(r.end), Failed: !r.hasAnswer()})
	}
	nextID := int64(2*len(recs) + 1)
	for _, b := range batches {
		var serves []int64
		for _, idx := range b.rows {
			for _, i := range byIdx[idx] {
				r := recs[i]
				if r.call.After(b.start) || r.end.Before(b.end) {
					continue
				}
				serves = append(serves, int64(i+1))
				inBackend[i] = b.end.Sub(b.start)
			}
		}
		s := span{ID: nextID, Name: "cluster.infer", StartUS: at(b.start), EndUS: at(b.end), Failed: b.failed}
		nextID++
		if len(serves) > 0 {
			s.Trace, s.Parent, s.Serves = serves[0], 2*serves[0], serves
		}
		spans = append(spans, s)
	}

	var e2e, gen, gw, cl time.Duration
	for i, r := range recs {
		e2e += r.latency()
		gen += r.call.Sub(r.sched)
		gw += r.end.Sub(r.call) - inBackend[i]
		cl += inBackend[i]
	}
	n := time.Duration(len(recs))
	table := []selfTime{
		{Layer: "loadgen (lag + goroutine start)", MeanMS: ms(gen / n)},
		{Layer: "serve (" + entry + ", cache, queue, batch, scatter)", MeanMS: ms(gw / n)},
		{Layer: "cluster (+ transport, nn, tensor)", MeanMS: ms(cl / n)},
	}
	for i := range table {
		table[i].SharePc = pct(table[i].MeanMS, ms(e2e/n))
	}
	return spans, table
}

func formatSelfTime(table []selfTime) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-52s %10s %8s\n", "layer (self time per request)", "mean ms", "share")
	for _, r := range table {
		fmt.Fprintf(&b, "%-52s %10.3f %7.1f%%\n", r.Layer, r.MeanMS, r.SharePc)
	}
	return b.String()
}
