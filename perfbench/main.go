// Command perfbench is the TeamNet serving benchmark. It builds the serving
// stack — serve → cluster → transport → nn → tensor — in one process, drives
// it with open-loop Poisson load through the gateway's public entry points,
// checks every answer against a reference, and prints the end-to-end
// metrics (or, with -trace 1, the per-layer ones) as the last line of its
// standard output:
//
//	perfbench -workload digits-edge -seed 1 -seconds 40 -trace 0
//
// A run has a nominal phase at a rate well below capacity (latency, CPU,
// failures) and an overload phase well past it (goodput). The traced run
// splits its nominal phase into a plain half and a recorded half, so it
// also reports its own overhead, and writes its spans and a per-layer
// self-time table under .bench_build/trace.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

const (
	// setupRuns is how many times set-up is repeated; setup_s is their
	// median and the last stack serves the run.
	setupRuns = 11
	// maxLag bounds how late (p99) the generator may send nominal requests;
	// a run that falls further behind measured itself and is invalid. It
	// sits above the timer jitter of a small VM with CPU steal, where sleeps
	// overshoot by 1 ms at the median and 10-17 ms at p99.
	maxLag = 50 * time.Millisecond
	// warmup runs at the nominal rate before measuring, so the cache, the
	// hedge timers and the Go heap reach steady state.
	warmup = time.Second
	// bursts is how many overload bursts of burstFor follow the nominal
	// phase, each followed by settle at the nominal rate. A burst is short
	// because it only has to saturate the stack: the admission queue fills
	// within its first half second, and a longer burst lets a CPU-bound
	// team's backlog outgrow the deadline, after which abandoned forward
	// passes pile up on the workers (gigabytes of scratch for the
	// Shake-Shake team) and goodput collapses.
	bursts   = 8
	burstFor = 1500 * time.Millisecond
	settle   = 500 * time.Millisecond
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// units of every metric the benchmark reports.
var units = map[string]string{
	"setup_s": "s", "latency_p50_ms": "ms", "latency_p99_ms": "ms", "goodput_rps": "1/s",
	"success_pct": "%", "cpu_ms_per_req": "ms", "rss_mb": "MB", "accuracy_pct": "%",

	"serve.queue_wait_mean_ms": "ms", "serve.batch_rows_mean": "rows", "serve.dispatch_busy_pct": "%",
	"serve.shed_pct": "%", "serve.cache_hit_pct": "%", "serve.coalesced_pct": "%",
	"serve.parse_us": "us", "serve.parse_allocs": "count",
	"cluster.infer_p50_ms": "ms", "cluster.infer_p99_ms": "ms", "cluster.serialize_mean_us": "us",
	"cluster.local_compute_mean_ms": "ms", "cluster.gate_mean_us": "us", "cluster.peer_rtt_mean_ms": "ms",
	"cluster.worker_compute_mean_ms": "ms", "cluster.wire_wait_mean_ms": "ms", "cluster.hedge_fired": "count",
	"cluster.hedge_won_pct": "%", "cluster.retries": "count", "cluster.degraded": "count",
	"transport.bytes_per_req": "B", "transport.encode_us_per_row": "us", "transport.decode_us_per_row": "us",
	"transport.allocs_per_frame": "count",
	"nn.forward_us_per_row":      "us", "nn.gflops": "GFLOP/s", "nn.roofline_pct": "%", "nn.top_step_pct": "%",
	"nn.allocs_per_forward":    "count",
	"tensor.gemm_model_gflops": "GFLOP/s", "tensor.gemm256_gflops": "GFLOP/s",
	"runtime.alloc_kb_per_req": "KiB", "runtime.gc_cpu_pct": "%", "loadgen.lag_p99_ms": "ms",
	"loadgen.tail_samples": "count", "trace.overhead_p50_ms": "ms", "trace.overhead_cpu_ms_per_req": "ms",
}

func main() {
	name := flag.String("workload", "", "workload: digits-edge, objects-cpu or digits-http-hot")
	seed := flag.Int64("seed", 1, "workload seed: the team and every input derive from it")
	seconds := flag.Int("seconds", 40, "measured seconds, nominal and overload (at least 20)")
	traced := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 20 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench -workload digits-edge|objects-cpu|digits-http-hot -seed N -seconds S -trace 0|1")
		os.Exit(2)
	}
	res, err := run(w, *seed, time.Duration(*seconds)*time.Second, *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func run(w *workload, seed int64, measure time.Duration, traced bool) (*result, error) {
	h := hostInfo(".")
	h.GEMM256GFLOPS = gemmGFLOPS(256, 256, 256, 15)
	hostLine, _ := json.Marshal(h)
	fmt.Printf("host %s\n", hostLine)
	fmt.Printf("workload %s seed %d: nominal %.0f req/s, overload %.0f req/s, %s measured, trace=%v\n",
		w.name, seed, w.nominal, w.overload, measure, traced)

	in, err := w.build(seed)
	if err != nil {
		return nil, fmt.Errorf("inputs: %w", err)
	}
	ref, err := referenceOf(w, in, seed)
	if err != nil {
		return nil, err
	}

	// rss_mb covers set-up and the nominal phase.
	runtime.GC()
	runtime.GC()
	debug.FreeOSMemory()
	rss0 := rssBytes()
	peak := startRSSPeak()
	var s *stack
	setups := make([]time.Duration, setupRuns)
	for i := range setups {
		if s != nil {
			s.close()
			runtime.GC()
		}
		t := time.Now()
		s, err = newStack(in, w.linkDelay, traced)
		setups[i] = time.Since(t)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
	defer s.close()

	send := predictClient(s.gw, in, ref)
	entry := "predict"
	if w.http {
		send, entry = httpClient(s.gw, in, ref), "http"
	}
	if traced {
		s.tap.rowIndex = make(map[uint64]int, len(in.rows))
		for i, r := range in.rows {
			s.tap.rowIndex[fingerprint(r.Data)] = i
		}
	}
	rng := rand.New(rand.NewSource(seed))
	gen := &generator{rng: rng, pick: in.picker(rng), send: send, slots: make(chan struct{}, maxInflight)}
	var phases []*window
	phase := func(name string, rate float64, d time.Duration) *window {
		win := &window{dur: d, before: takeSample(s)}
		win.recs = gen.run(rate, d)
		win.after = takeSample(s)
		phases = append(phases, win)
		fmt.Println(summary(name, win.recs))
		return win
	}
	phase("warm-up", w.nominal, warmup)

	// nominal holds the measured nominal phase, over the overload
	// bursts. The nominal phase comes first: the program keeps state across
	// an overload episode (its hedge timers follow the cumulative per-peer
	// RTT histograms), and nominal tails measured after bursts grew burst by
	// burst. rss_mb ends with the nominal phase: under overload the resident
	// set grows with the backlog the generator has admitted, so it would
	// measure the generator rather than the stack.
	var nominal, over []*window
	if traced {
		half := (measure - burstFor) / 2
		nominal = append(nominal, phase("nominal", w.nominal, half))
		s.tap.on.Store(true)
		nominal = append(nominal, phase("nominal (recorded)", w.nominal, half))
	} else {
		nominal = append(nominal, phase("nominal", w.nominal, measure-bursts*burstFor))
	}
	rssMB := float64(peak.finish()-rss0) / (1 << 20)
	batches := s.spans()
	for i := 0; i < bursts; i++ {
		over = append(over, phase("overload", w.overload, burstFor))
		if traced {
			break
		}
		phase("settle", w.nominal, settle)
	}
	fmt.Printf("rss at the end %d MB\n", rssBytes()>>20)
	fmt.Printf("answer check: %d of %d pool entries have a reference\n", ref.checked, len(in.rows))

	res := &result{Correct: true, Metrics: map[string]metric{}}
	for _, win := range phases {
		for _, r := range win.recs {
			if r.out == wrong {
				res.Correct = false
			}
		}
	}
	var recs []*record
	for _, win := range nominal {
		recs = append(recs, win.recs...)
	}
	res.Attempted = len(recs)
	for _, r := range recs {
		if !r.ok() {
			res.Failed++
		}
	}
	if lag := quantile(sortedLags(recs), 0.99); lag > maxLag {
		return nil, fmt.Errorf("invalid run: the load generator sent nominal requests %v late (p99), over the %v bound", lag, maxLag)
	}

	var vals map[string]float64
	if traced {
		vals = layerMetrics(in, s, nominal[0], nominal[1], over[0], batches, h.GEMM256GFLOPS)
		if err := writeTrace(h, w, seed, vals, nominal[1].recs, batches, entry); err != nil {
			return nil, err
		}
	} else {
		vals = endToEnd(nominal, over)
		vals["setup_s"] = medianDuration(setups).Seconds()
		vals["rss_mb"] = rssMB
	}
	for k, v := range vals {
		res.Metrics[k] = metric{Value: v, Unit: units[k]}
	}
	return res, nil
}

// endToEnd computes the end-to-end metrics but set-up time and memory from
// the nominal phase and the overload bursts. CPU per answer is taken over
// the whole nominal phase, and goodput over all bursts together: the host's
// speed drifts from second to second, and a total averages the drift where
// a median over pieces of the run follows whichever state most pieces fell
// in.
func endToEnd(nominal, over []*window) map[string]float64 {
	var recs []*record
	var good []float64
	answers, counted := 0, time.Duration(0)
	var cpu time.Duration
	for _, win := range nominal {
		recs = append(recs, win.recs...)
		cpu += win.after.cpu - win.before.cpu
	}
	for _, win := range over {
		n, d := goodput(win.recs, win.before.at, win.dur)
		answers += n
		counted += d
		good = append(good, float64(n)/d.Seconds())
	}
	// Accuracy counts each distinct input once, so on a skewed workload it
	// does not hang on whether the few most popular inputs happen to be
	// classified right.
	labelOK := map[int]bool{}
	for _, win := range append(append([]*window(nil), nominal...), over...) {
		for _, r := range win.recs {
			if _, seen := labelOK[r.idx]; r.hasAnswer() && !seen {
				labelOK[r.idx] = r.labelOK
			}
		}
	}
	labelled := 0
	for _, ok := range labelOK {
		if ok {
			labelled++
		}
	}
	ok := 0
	for _, r := range recs {
		if r.ok() {
			ok++
		}
	}
	fmt.Printf("goodput_rps counts the answers of all bursts together; burst by burst it was %.0f\n", good)
	p50, tail, q, per := latencyStats(recs)
	fmt.Printf("latency_p99_ms is the median over slices of %d answers of the slice p%.1f (%d beyond it)\n",
		per, 100*q, per-int(math.Round(q*float64(per))))
	return map[string]float64{
		"latency_p50_ms": ms(p50),
		"latency_p99_ms": ms(tail),
		"goodput_rps":    float64(answers) / counted.Seconds(),
		"success_pct":    pct(float64(ok), float64(len(recs))),
		"cpu_ms_per_req": ms(cpu) / float64(max(ok, 1)),
		"accuracy_pct":   pct(float64(labelled), float64(len(labelOK))),
	}
}

// writeTrace writes the traced run's spans, self-time table and per-layer
// metrics under .bench_build/trace and prints the table.
func writeTrace(h host, w *workload, seed int64, vals map[string]float64, recs []*record, batches []batchSpan, entry string) error {
	spans, table := buildSpans(recs, batches, entry)
	fmt.Print(formatSelfTime(table))
	out, err := json.Marshal(map[string]any{
		"host": h, "workload": w.name, "seed": seed, "metrics": vals,
		"self_time": table, "spans": spans,
	})
	if err != nil {
		return err
	}
	path, err := writeFile(".bench_build/trace", fmt.Sprintf("%s-seed%d.json", w.name, seed), out)
	if err != nil {
		return err
	}
	fmt.Printf("spans: %d written to %s\n", len(spans), path)
	return nil
}

// summary is one phase's request accounting.
func summary(name string, recs []*record) string {
	counts := map[outcome]int{}
	ok, cached := 0, 0
	for _, r := range recs {
		counts[r.out]++
		if r.ok() {
			ok++
		}
		if r.cached {
			cached++
		}
	}
	return fmt.Sprintf("%s: attempted=%d ok=%d cached=%d answered=%d wrong=%d degraded=%d shed=%d late=%d error=%d lag_p99=%.3fms",
		name, len(recs), ok, cached, counts[answered], counts[wrong], counts[degraded], counts[shed], counts[late], counts[failedReq],
		ms(quantile(sortedLags(recs), 0.99)))
}

// referenceOf answers the checked pool entries on a stack of its own, built
// from the same bundle and torn down before set-up is measured: a
// reference batch of a large team takes tens of MB of scratch per expert.
func referenceOf(w *workload, in *inputs, seed int64) (*reference, error) {
	s, err := newStack(in, w.linkDelay, false)
	if err != nil {
		return nil, fmt.Errorf("reference stack: %w", err)
	}
	defer s.close()
	return newReference(s.master, in, w.checkSample, w.refParallel, seed)
}
