package main

import (
	"bytes"
	"context"
	"encoding/json"
	"hash/fnv"
	"math"
	rtmetrics "runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/teamnet/teamnet/internal/cluster"
	"github.com/teamnet/teamnet/internal/metrics"
	"github.com/teamnet/teamnet/internal/nn"
	"github.com/teamnet/teamnet/internal/serve"
	"github.com/teamnet/teamnet/internal/tensor"
	"github.com/teamnet/teamnet/internal/transport"
)

// tap is the traced run's serve.Backend around the master. It forwards
// both entry points the gateway uses (without InferQuorumContext the
// gateway would silently leave the degraded path), tracks how many
// dispatch slots are busy, and while recording keeps a span per backend
// batch plus the most recent batches for replay.
type tap struct {
	inner serve.DegradedBackend
	slots int
	on    atomic.Bool
	// rowIndex maps a row fingerprint to its pool entry, so a batch span can
	// be linked to the requests it served.
	rowIndex map[uint64]int

	mu        sync.Mutex
	inflight  int
	busySince time.Time
	busy      time.Duration
	batches   []batchSpan
	recent    []replayBatch
}

type batchSpan struct {
	start, end time.Time
	rows       []int // pool entry of each row, -1 when unknown
	failed     bool
}

type replayBatch struct{ x, probs *tensor.Tensor }

// recentBatches bounds the batches kept for replay.
const recentBatches = 64

func newTap(inner serve.DegradedBackend, slots int) *tap {
	return &tap{inner: inner, slots: slots}
}

func (t *tap) InferContext(ctx context.Context, x *tensor.Tensor) (*tensor.Tensor, []int, error) {
	start := t.enter()
	probs, winners, err := t.inner.InferContext(ctx, x)
	t.exit(start, x, probs, err)
	return probs, winners, err
}

func (t *tap) InferQuorumContext(ctx context.Context, x *tensor.Tensor, soft time.Duration) (*tensor.Tensor, []int, int, int, error) {
	start := t.enter()
	probs, winners, live, total, err := t.inner.InferQuorumContext(ctx, x, soft)
	t.exit(start, x, probs, err)
	return probs, winners, live, total, err
}

func (t *tap) enter() time.Time {
	now := time.Now()
	t.mu.Lock()
	t.inflight++
	if t.inflight == t.slots {
		t.busySince = now
	}
	t.mu.Unlock()
	return now
}

func (t *tap) exit(start time.Time, x, probs *tensor.Tensor, err error) {
	end := time.Now()
	var span batchSpan
	recording := t.on.Load()
	if recording {
		span = batchSpan{start: start, end: end, rows: make([]int, x.Shape[0]), failed: err != nil}
		for r := range span.rows {
			span.rows[r] = t.poolIndex(x.RowSlice(r))
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.inflight == t.slots {
		t.busy += end.Sub(t.busySince)
	}
	t.inflight--
	if !recording {
		return
	}
	t.batches = append(t.batches, span)
	if err == nil {
		if len(t.recent) == recentBatches {
			t.recent = t.recent[1:]
		}
		t.recent = append(t.recent, replayBatch{x: x, probs: probs})
	}
}

// busyTime is the total time all dispatch slots were busy up to now.
func (t *tap) busyTime(now time.Time) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.inflight >= t.slots {
		return t.busy + now.Sub(t.busySince)
	}
	return t.busy
}

func (t *tap) poolIndex(row []float64) int {
	if i, ok := t.rowIndex[fingerprint(row)]; ok {
		return i
	}
	return -1
}

func fingerprint(row []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range row {
		u := math.Float64bits(v)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// sample is the program's own counters and histograms, plus process
// resources, at one instant; per-layer metrics are deltas of two samples.
// The histograms are log2-bucketed, so means come from exact Sum/Count
// deltas, never from their quantiles.
type sample struct {
	at        time.Time
	cpu       time.Duration
	counters  map[string]int64    // gateway and master counters
	hists     map[string][2]int64 // name → {count, sum ns}
	batchRows [2]int64            // serve.batch_size {count, sum}
	linkBytes int64
	busy      time.Duration
	heapAlloc uint64
	gcCPU     float64 // seconds
}

var runtimeSamples = []rtmetrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

func takeSample(s *stack) sample {
	now := time.Now()
	sm := sample{at: now, cpu: processCPU(), counters: map[string]int64{}, hists: map[string][2]int64{}, linkBytes: s.linkBytes()}
	for k, v := range s.gw.Counters().Snapshot() {
		sm.counters[k] += v
	}
	for k, v := range s.master.Counters().Snapshot() {
		sm.counters[k] += v
	}
	for _, set := range []*metrics.HistogramSet{s.gw.Histograms(), s.master.Histograms()} {
		for _, name := range set.Names() {
			h := set.Histogram(name)
			sm.hists[name] = [2]int64{h.Count(), int64(h.Sum())}
		}
	}
	bs := s.gw.ValueHistograms().Histogram("serve.batch_size")
	sm.batchRows = [2]int64{bs.Count(), bs.Sum()}
	if s.tap != nil {
		sm.busy = s.tap.busyTime(now)
	}
	rs := append([]rtmetrics.Sample(nil), runtimeSamples...)
	rtmetrics.Read(rs)
	if rs[0].Value.Kind() == rtmetrics.KindUint64 {
		sm.heapAlloc = rs[0].Value.Uint64()
	}
	if rs[1].Value.Kind() == rtmetrics.KindFloat64 {
		sm.gcCPU = rs[1].Value.Float64()
	}
	return sm
}

// window is one measured phase: its requests and the samples around it.
type window struct {
	recs          []*record
	dur           time.Duration
	before, after sample
}

func (w *window) counter(name string) int64 { return w.after.counters[name] - w.before.counters[name] }

// histMean is the mean over the window of every histogram whose name has
// the given prefix and suffix, in units of unit.
func (w *window) histMean(prefix, suffix string, unit time.Duration) float64 {
	var n, sum int64
	for name, a := range w.after.hists {
		if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
			continue
		}
		b := w.before.hists[name]
		n += a[0] - b[0]
		sum += a[1] - b[1]
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n) / float64(unit)
}

func (w *window) sumCounters(prefix, suffix string) int64 {
	var n int64
	for name, a := range w.after.counters {
		if strings.HasPrefix(name, prefix) && strings.HasSuffix(name, suffix) {
			n += a - w.before.counters[name]
		}
	}
	return n
}

func pct(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// layerMetrics computes every per-layer metric of the traced run. plain and
// traced are the nominal halves without and with recording; over is the
// overload phase (recorded); spans are the tap's batches of the traced
// nominal half.
func layerMetrics(in *inputs, s *stack, plain, traced, over *window, spans []batchSpan, gemm256 float64) map[string]float64 {
	m := map[string]float64{}
	n := float64(len(traced.recs))

	// serve
	m["serve.queue_wait_mean_ms"] = traced.histMean("serve.queue_wait", "", time.Millisecond)
	rows := traced.after.batchRows[1] - traced.before.batchRows[1]
	batches := traced.after.batchRows[0] - traced.before.batchRows[0]
	meanBatch := 1.0
	if batches > 0 {
		meanBatch = float64(rows) / float64(batches)
	}
	m["serve.batch_rows_mean"] = meanBatch
	m["serve.dispatch_busy_pct"] = pct(float64(over.after.busy-over.before.busy), float64(over.after.at.Sub(over.before.at)))
	m["serve.shed_pct"] = pct(float64(over.counter("serve.shed.queue_full")+over.counter("serve.shed.expired")), float64(over.counter("serve.requests")))
	m["serve.cache_hit_pct"] = pct(float64(traced.counter("serve.cache.hits")), float64(traced.counter("serve.requests")))
	m["serve.coalesced_pct"] = pct(float64(traced.counter("serve.cache.coalesced")), float64(traced.counter("serve.requests")))
	m["serve.parse_us"], m["serve.parse_allocs"] = replayParse(in, traced.recs)

	// cluster
	var infer []time.Duration
	for _, b := range spans {
		infer = append(infer, b.end.Sub(b.start))
	}
	sort.Slice(infer, func(i, j int) bool { return infer[i] < infer[j] })
	m["cluster.infer_p50_ms"] = ms(quantile(infer, 0.5))
	m["cluster.infer_p99_ms"] = ms(quantile(infer, 0.99))
	m["cluster.serialize_mean_us"] = traced.histMean("infer.serialize", "", time.Microsecond)
	m["cluster.local_compute_mean_ms"] = traced.histMean("local.compute", "", time.Millisecond)
	m["cluster.gate_mean_us"] = traced.histMean("infer.gate", "", time.Microsecond)
	rtt := traced.histMean("peer.", ".rtt", time.Millisecond)
	compute := traced.histMean("peer.", ".compute", time.Millisecond)
	m["cluster.peer_rtt_mean_ms"] = rtt
	m["cluster.worker_compute_mean_ms"] = compute
	m["cluster.wire_wait_mean_ms"] = rtt - compute
	all := &window{before: traced.before, after: over.after}
	fired := all.counter("hedge.fired")
	m["cluster.hedge_fired"] = float64(fired)
	m["cluster.hedge_won_pct"] = pct(float64(all.counter("hedge.won")), float64(fired))
	m["cluster.retries"] = float64(all.sumCounters("peer.", ".retries"))
	m["cluster.degraded"] = float64(all.counter("infer.partial"))

	// transport
	if len(s.relays) > 0 {
		m["transport.bytes_per_req"] = float64(traced.after.linkBytes-traced.before.linkBytes) / n
	} else {
		var wire int
		width := in.rows[0].Shape[1]
		for _, b := range spans {
			wire += cluster.InputWireBytes(len(b.rows), width) + cluster.ResultWireBytes(len(b.rows), s.team.Classes)
		}
		m["transport.bytes_per_req"] = float64(wire*len(s.workers)) / n
	}
	m["transport.encode_us_per_row"], m["transport.decode_us_per_row"], m["transport.allocs_per_frame"] = replayTransport(s)

	// nn and tensor, at the observed mean batch
	b := int(math.Round(meanBatch))
	b = max(1, min(b, maxBatch))
	x := tensor.New(b, in.rows[0].Shape[1])
	for r := 0; r < b; r++ {
		copy(x.RowSlice(r), in.rows[r%len(in.rows)].Data)
	}
	replayNN(s, x, m)
	m["nn.roofline_pct"] = pct(m["nn.gflops"], gemm256)
	m["tensor.gemm_model_gflops"] = replayGEMM(s.team.Experts[0].Layers, b)
	m["tensor.gemm256_gflops"] = gemm256

	// process
	m["runtime.alloc_kb_per_req"] = float64(traced.after.heapAlloc-traced.before.heapAlloc) / 1024 / n
	m["runtime.gc_cpu_pct"] = pct(traced.after.gcCPU-traced.before.gcCPU, (traced.after.cpu - traced.before.cpu).Seconds())
	lags := sortedLags(traced.recs)
	m["loadgen.lag_p99_ms"] = ms(quantile(lags, 0.99))
	p50, _, q, per := latencyStats(plain.recs)
	m["loadgen.tail_samples"] = float64(per) - math.Round(q*float64(per))

	// the traced half against the plain half
	p50T, _, _, _ := latencyStats(traced.recs)
	m["trace.overhead_p50_ms"] = ms(p50T - p50)
	m["trace.overhead_cpu_ms_per_req"] = cpuPerReq(traced) - cpuPerReq(plain)
	return m
}

// cpuPerReq is process CPU per correct answer in the window, in ms.
func cpuPerReq(w *window) float64 {
	ok := 0
	for _, r := range w.recs {
		if r.ok() {
			ok++
		}
	}
	if ok == 0 {
		return 0
	}
	return ms(w.after.cpu-w.before.cpu) / float64(ok)
}

// timeReps runs f until at least reps calls and budget have passed and
// returns the median call time.
func timeReps(reps int, budget time.Duration, f func()) time.Duration {
	f()
	var ds []time.Duration
	start := time.Now()
	for len(ds) < reps || time.Since(start) < budget {
		t := time.Now()
		f()
		ds = append(ds, time.Since(t))
		if len(ds) >= 10*reps {
			break
		}
	}
	return medianDuration(ds)
}

// replayParse passes the request bodies the window actually sent (or, for
// workloads that do not use HTTP, the JSON form of their inputs) through
// serve.ParsePredict.
func replayParse(in *inputs, recs []*record) (usPerBody, allocs float64) {
	seen := map[int]bool{}
	var bodies [][]byte
	for _, r := range recs {
		if seen[r.idx] || len(bodies) == 64 {
			continue
		}
		seen[r.idx] = true
		if in.bodies != nil {
			bodies = append(bodies, in.bodies[r.idx])
			continue
		}
		b, err := json.Marshal(serve.PredictRequest{X: [][]float64{in.rows[r.idx].Data}})
		if err == nil {
			bodies = append(bodies, b)
		}
	}
	if len(bodies) == 0 {
		return 0, 0
	}
	parseAll := func() {
		for _, b := range bodies {
			serve.ParsePredict(bytes.NewReader(b), maxBatch)
		}
	}
	d := timeReps(5, 100*time.Millisecond, parseAll)
	allocs = testing.AllocsPerRun(20, func() { serve.ParsePredict(bytes.NewReader(bodies[0]), maxBatch) })
	return us(d) / float64(len(bodies)), allocs
}

// replayTransport encodes and decodes the input and result frames of the
// batches the run produced.
func replayTransport(s *stack) (encUsPerRow, decUsPerRow, allocsPerFrame float64) {
	s.tap.mu.Lock()
	recent := append([]replayBatch(nil), s.tap.recent...)
	s.tap.mu.Unlock()
	if len(recent) == 0 {
		return 0, 0, 0
	}
	type frames struct {
		x   *tensor.Tensor
		res cluster.PredictResult
		in  []byte
		out []byte
	}
	fs := make([]frames, len(recent))
	rows := 0
	for i, b := range recent {
		res := cluster.PredictResult{Probs: b.probs, Entropy: tensor.EntropyRows(b.probs).Data}
		fs[i] = frames{x: b.x, res: res, in: transport.EncodeTensor(b.x), out: cluster.EncodeResult(res)}
		rows += b.x.Shape[0]
	}
	enc := timeReps(5, 50*time.Millisecond, func() {
		for _, f := range fs {
			transport.EncodeTensor(f.x)
			cluster.EncodeResult(f.res)
		}
	})
	dec := timeReps(5, 50*time.Millisecond, func() {
		for _, f := range fs {
			transport.DecodeTensor(f.in)
			cluster.DecodeResult(f.out)
		}
	})
	f := fs[0]
	allocs := testing.AllocsPerRun(20, func() { transport.EncodeTensor(f.x) }) +
		testing.AllocsPerRun(20, func() { transport.DecodeTensor(f.in) }) +
		testing.AllocsPerRun(20, func() { cluster.EncodeResult(f.res) }) +
		testing.AllocsPerRun(20, func() { cluster.DecodeResult(f.out) })
	return us(enc) / float64(rows), us(dec) / float64(rows), allocs / 2
}

// replayNN runs each expert's compiled snapshot on x (the observed mean
// batch) and fills the nn.* metrics.
func replayNN(s *stack, x *tensor.Tensor, m map[string]float64) {
	b := x.Shape[0]
	var total time.Duration
	var flops float64
	var snap0 *nn.Snapshot
	for i, e := range s.team.Experts {
		snap, err := nn.NewSnapshot(e)
		if err != nil {
			continue
		}
		if i == 0 {
			snap0 = snap
		}
		probs, ent := tensor.New(b, s.team.Classes), tensor.New(b)
		total += timeReps(3, 100*time.Millisecond, func() { snap.PredictWithEntropyInto(probs, ent, x) })
		for _, c := range snap.LayerCosts() {
			flops += c.FLOPs * float64(b)
		}
	}
	if snap0 == nil || total == 0 {
		return
	}
	m["nn.forward_us_per_row"] = us(total) / float64(b)
	m["nn.gflops"] = flops / total.Seconds() / 1e9

	// Per-step times of expert 0: the share of the slowest step.
	act := x
	var steps []time.Duration
	for i := 0; i < snap0.Steps(); i++ {
		out := snap0.ForwardRange(act, i, i+1)
		in := act
		steps = append(steps, timeReps(3, 20*time.Millisecond, func() { snap0.ForwardRangeInto(out, in, i, i+1) }))
		act = out
	}
	var sum, top time.Duration
	for _, d := range steps {
		sum += d
		top = max(top, d)
	}
	m["nn.top_step_pct"] = pct(float64(top), float64(sum))
	probs, ent := tensor.New(b, s.team.Classes), tensor.New(b)
	m["nn.allocs_per_forward"] = testing.AllocsPerRun(5, func() { snap0.PredictWithEntropyInto(probs, ent, x) })
}

// gemmShapes lists the m×k×n matrix products one forward pass of layers
// makes at the given batch, as the compiled snapshot lays them out.
func gemmShapes(layers []nn.Layer, batch int) [][3]int {
	var out [][3]int
	for _, l := range layers {
		switch l := l.(type) {
		case *nn.Dense:
			out = append(out, [3]int{batch, l.In(), l.Out()})
		case *nn.Conv2D:
			g := l.Geom
			out = append(out, [3]int{g.OutC, g.PatchLen(), batch * g.OutH * g.OutW})
		case *nn.ShakeShake:
			out = append(out, gemmShapes(l.Branch1.Layers, batch)...)
			out = append(out, gemmShapes(l.Branch2.Layers, batch)...)
			if l.Skip != nil {
				out = append(out, gemmShapes([]nn.Layer{l.Skip}, batch)...)
			}
		}
	}
	return out
}

// replayGEMM times MatMulInto at the model's GEMM shapes and returns the
// aggregate rate.
func replayGEMM(layers []nn.Layer, batch int) float64 {
	var flops, secs float64
	for _, sh := range gemmShapes(layers, batch) {
		r := gemmGFLOPS(sh[0], sh[1], sh[2], 10)
		f := 2 * float64(sh[0]*sh[1]*sh[2])
		flops += f
		secs += f / (r * 1e9)
	}
	if secs == 0 {
		return 0
	}
	return flops / secs / 1e9
}
