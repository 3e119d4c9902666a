package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	"github.com/teamnet/teamnet/internal/serve"
)

// outcome classifies one request.
type outcome uint8

const (
	answered  outcome = iota // full ensemble, equal to the reference
	wrong                    // full ensemble, differs from the reference
	degraded                 // partial ensemble
	shed                     // refused at admission
	late                     // the deadline expired first
	failedReq                // any other error
)

// record is one request: the pool entry it carried, when it was due, when
// the generator sent it, when the client call began and when it returned.
type record struct {
	idx                    int
	sched, sent, call, end time.Time
	out                    outcome
	cached                 bool
	labelOK                bool // arg-max equals the label (answered requests)
}

func (r *record) latency() time.Duration { return r.end.Sub(r.sched) }

// ok reports a correct, full-ensemble answer within the deadline.
func (r *record) ok() bool { return r.out == answered && r.latency() <= deadline }

func (r *record) hasAnswer() bool { return r.out == answered || r.out == wrong || r.out == degraded }

// client sends one request to the stack and classifies the reply.
type client func(rec *record)

// predictClient sends each pool row through Gateway.Predict.
func predictClient(gw *serve.Gateway, in *inputs, ref *reference) client {
	return func(rec *record) {
		rec.call = time.Now()
		res, err := gw.Predict(context.Background(), in.rows[rec.idx])
		rec.end = time.Now()
		if err != nil {
			rec.out = classifyErr(err)
			return
		}
		rec.cached = res.Cached
		rec.out, rec.labelOK = judge(ref, rec.idx, res.Probs.RowSlice(0), res.Winners[0], res.Degraded)
	}
}

// httpClient sends each pool row's JSON body through the gateway's HTTP
// handler in-process: no socket is opened.
func httpClient(gw *serve.Gateway, in *inputs, ref *reference) client {
	h := gw.Handler()
	return func(rec *record) {
		rec.call = time.Now()
		req := httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(in.bodies[rec.idx]))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		rec.end = time.Now()
		switch w.Code {
		case http.StatusOK:
		case http.StatusTooManyRequests:
			rec.out = shed
			return
		case http.StatusGatewayTimeout:
			rec.out = late
			return
		default:
			rec.out = failedReq
			return
		}
		var resp serve.PredictResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || len(resp.Probs) != 1 || len(resp.Winners) != 1 {
			rec.out = failedReq
			return
		}
		rec.cached = resp.Cached
		rec.out, rec.labelOK = judge(ref, rec.idx, resp.Probs[0], resp.Winners[0], resp.Degraded)
	}
}

func classifyErr(err error) outcome {
	switch {
	case errors.Is(err, serve.ErrQueueFull):
		return shed
	case errors.Is(err, context.DeadlineExceeded):
		return late
	default:
		return failedReq
	}
}

func judge(ref *reference, idx int, probs []float64, winner int, partial bool) (outcome, bool) {
	labelOK := ref.labelled(idx, probs)
	switch {
	case partial:
		return degraded, labelOK
	case !ref.matches(idx, probs, winner):
		return wrong, labelOK
	default:
		return answered, labelOK
	}
}

// maxInflight bounds the requests inside the stack at once; later arrivals
// wait for a slot, their latency running from their scheduled send time.
// In-process clients stand in for sockets, whose accept backlog keeps a
// saturated server from parsing every arrival at once. Without the bound,
// every arrival of an HTTP overload burst became a runnable goroutine
// parsing its body, the gateway's own goroutines starved behind them,
// peer round trips passed the quorum soft deadline, and bursts collapsed
// into degraded answers at random. The bound sits above the gateway's own
// in-flight limit (a 256 queue plus two 16-row batches), so admission
// control still sheds first on the Predict workloads.
const maxInflight = 512

// generator is the open-loop Poisson load generator. Requests are sent on
// schedule whether or not earlier ones have returned, each on its own
// goroutine, because the users are independent edge clients.
type generator struct {
	rng   *rand.Rand
	pick  func(i int) int
	seq   int // requests sent so far in the run
	send  client
	slots chan struct{} // semaphore of maxInflight
}

// run offers rate req/s for dur and returns once every request sent has
// returned.
func (g *generator) run(rate float64, dur time.Duration) []*record {
	var recs []*record
	var wg sync.WaitGroup
	start := time.Now()
	end := start.Add(dur)
	next := start
	for {
		next = next.Add(time.Duration(g.rng.ExpFloat64() / rate * float64(time.Second)))
		if !next.Before(end) {
			break
		}
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		rec := &record{idx: g.pick(g.seq), sched: next, sent: time.Now()}
		g.seq++
		recs = append(recs, rec)
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.slots <- struct{}{}
			defer func() { <-g.slots }()
			g.send(rec)
		}()
	}
	wg.Wait()
	return recs
}

// quantile returns the q-quantile (nearest rank) of sorted ds.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	i := int(q*float64(len(ds))+0.5) - 1
	return ds[max(0, min(i, len(ds)-1))]
}

// Latency figures are medians over slices of the nominal phase, so a burst
// of CPU steal or a collector pause that spoils one slice does not move the
// run's figure.

// latencyStats splits the correct answers, in send order, into at least
// five slices of about a thousand and returns the median over slices of
// the slice median and of the slice tail: p99, or the highest percentile
// with at least ten samples beyond it when a slice is smaller.
func latencyStats(recs []*record) (p50, tail time.Duration, q float64, perSlice int) {
	var ok []*record
	for _, r := range recs {
		if r.ok() {
			ok = append(ok, r)
		}
	}
	k := max(5, len(ok)/1000)
	perSlice = len(ok) / k
	if perSlice < 11 {
		return 0, 0, 0, perSlice
	}
	ti := min(perSlice-11, int(math.Ceil(0.99*float64(perSlice)))-1)
	var p50s, tails []time.Duration
	for i := 0; i < k; i++ {
		ds := sortedLatencies(ok[i*perSlice:(i+1)*perSlice], func(*record) bool { return true })
		p50s = append(p50s, quantile(ds, 0.5))
		tails = append(tails, ds[ti])
	}
	return medianDuration(p50s), medianDuration(tails), float64(ti+1) / float64(perSlice), perSlice
}

// goodput counts the correct, full-ensemble answers within the deadline
// of one burst, by the time they were answered, and returns them with the
// window they were counted in. The first third of the burst, in which the
// admission queue fills and the stack ramps up, is left out.
func goodput(recs []*record, start time.Time, dur time.Duration) (int, time.Duration) {
	fill := dur / 3
	from, to := start.Add(fill), start.Add(dur)
	n := 0
	for _, r := range recs {
		if r.ok() && !r.end.Before(from) && r.end.Before(to) {
			n++
		}
	}
	return n, dur - fill
}

func sortedLatencies(recs []*record, keep func(*record) bool) []time.Duration {
	var ds []time.Duration
	for _, r := range recs {
		if keep(r) {
			ds = append(ds, r.latency())
		}
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds
}

func sortedLags(recs []*record) []time.Duration {
	ds := make([]time.Duration, len(recs))
	for i, r := range recs {
		ds[i] = r.sent.Sub(r.sched)
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds
}
