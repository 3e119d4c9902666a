package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"github.com/teamnet/teamnet/internal/core"
	"github.com/teamnet/teamnet/internal/dataset"
	"github.com/teamnet/teamnet/internal/nn"
	"github.com/teamnet/teamnet/internal/serve"
	"github.com/teamnet/teamnet/internal/tensor"
)

// workload is one traffic mix. The three are chosen so that each layer is
// exercised by one workload and bypassed by another:
//
//   - digits-edge: the §VI-C team over a 20 ms one-way link with distinct
//     inputs. Compute is tiny, so capacity is set by dispatch concurrency ×
//     batch / RTT, well below what the CPU allows; every request takes the
//     cache's miss-and-put path.
//   - objects-cpu: the §VI-D Shake-Shake team on raw loopback. nn and tensor
//     do nearly all the work, so it is CPU-bound.
//   - digits-http-hot: the digits team and link, but requests enter as JSON
//     through the HTTP handler and 40% of them repeat (Zipf over 512 hot
//     images), so HTTP decode and the cache's read path are exercised
//     while most answers still come from the cluster.
type workload struct {
	name      string
	linkDelay time.Duration // one-way emulated link delay; 0 = raw loopback
	http      bool          // requests enter through Gateway.Handler
	nominal   float64       // Poisson rate of the nominal phase, req/s
	overload  float64       // Poisson rate of the overload phase, req/s
	// checkSample bounds how many distinct pool inputs get a reference
	// answer; 0 checks every one.
	checkSample int
	// refParallel is how many reference batches run at once.
	refParallel int
	// build trains or seeds the team and generates the request pool.
	build func(seed int64) (*inputs, error)
}

// inputs is everything a run prepares before set-up: the team bundle the
// stack decodes, and the request pool and the order requests draw from it.
// The team is built from a fixed seed, as a deployed bundle is fixed; the
// pool derives from the workload seed. So accuracy_pct measures the program
// on fresh inputs, not the luck of one training draw.
type inputs struct {
	bundle  []byte
	version string // model version label scoping cache keys
	rows    []*tensor.Tensor
	labels  []int
	bodies  [][]byte // JSON request bodies (HTTP workloads)
	// hot > 0 makes the first hot pool entries popular: a request draws
	// one of them Zipf(s=1.1) with probability hotShare, and otherwise
	// takes the next of the other entries in turn. With hot = 0, request i
	// of the run takes pool entry i mod len(rows).
	hot      int
	hotShare float64
}

// picker returns the pool index of the i-th request of a run. It is called
// from the load generator's goroutine only.
func (in *inputs) picker(rng *rand.Rand) func(i int) int {
	if in.hot > 0 {
		z := rand.NewZipf(rng, 1.1, 1, uint64(in.hot-1))
		fresh := 0
		return func(int) int {
			if rng.Float64() < in.hotShare {
				return int(z.Uint64())
			}
			fresh++
			return in.hot + fresh%(len(in.rows)-in.hot)
		}
	}
	return func(i int) int { return i % len(in.rows) }
}

var workloads = map[string]*workload{
	"digits-edge": {
		name: "digits-edge", linkDelay: 20 * time.Millisecond,
		nominal: 300, overload: 1500, refParallel: 16,
		// A pool larger than the cache (4096 entries), cycled in order,
		// evicts every entry before its key repeats: the hit rate is 0.
		build: func(seed int64) (*inputs, error) { return digitsInputs(seed, 16384) },
	},
	"objects-cpu": {
		// One reference batch at a time: each SS-8 forward of 16 rows takes
		// tens of MB of scratch.
		name: "objects-cpu", nominal: 150, overload: 1000, checkSample: 256, refParallel: 1,
		build: objectsInputs,
	},
	"digits-http-hot": {
		name: "digits-http-hot", linkDelay: 20 * time.Millisecond, http: true,
		nominal: 400, overload: 1500, refParallel: 16,
		// 512 hot images drawn by 40% of requests, and 6144 others that
		// never hit: a fresh image comes back only after 6143 other fresh
		// ones, by when the 4096-entry cache has evicted it. So about a
		// third of the answers are hits, and the median and p99 answers
		// come from the cluster.
		build: func(seed int64) (*inputs, error) {
			in, err := digitsInputs(seed, 512+6144)
			if err != nil {
				return nil, err
			}
			in.hot, in.hotShare = 512, 0.4
			bodies := make([][]byte, len(in.rows))
			size := 0
			for i, r := range in.rows {
				b, err := json.Marshal(serve.PredictRequest{X: [][]float64{r.Data}})
				if err != nil {
					return nil, err
				}
				bodies[i] = b
				size += len(b)
			}
			// Off the Go heap, like the rows: about 100 MB of bodies.
			buf, err := offHeap(size)
			if err != nil {
				return nil, err
			}
			in.bodies = make([][]byte, len(bodies))
			for i, b := range bodies {
				in.bodies[i] = buf[:len(b):len(b)]
				copy(in.bodies[i], b)
				buf = buf[len(b):]
			}
			return in, nil
		},
	},
}

// modelSeed seeds every team's weights and training data.
const modelSeed = 7

// digitsInputs trains the paper's K=4 MLP-2 digit team on 1000 synthetic
// images for 3 epochs, then renders a pool of n further images from seed.
func digitsInputs(seed int64, n int) (*inputs, error) {
	ds := dataset.Digits(dataset.DigitsConfig{N: 1000, Seed: modelSeed})
	spec, err := nn.DigitsExpert(4, ds.Features(), ds.Classes)
	if err != nil {
		return nil, err
	}
	tr, err := core.NewTrainer(core.Config{
		K: 4, ExpertSpec: spec, Epochs: 3, BatchSize: 50,
		ExpertLR: 0.05, Gain: 0.5, Seed: modelSeed,
	})
	if err != nil {
		return nil, err
	}
	team, _ := tr.Train(ds)
	pool := dataset.Digits(dataset.DigitsConfig{N: n, Seed: seed})
	return newInputs(team, pool)
}

// objectsInputs builds the K=4 SS-8 object team with seeded weights. Compute
// cost does not depend on training, so the experts are not trained; their
// batch-norm statistics come from one pass over 64 images. Images are
// 3×16×16, a quarter of CIFAR-10's area: at 32×32 every 16-row forward
// pass takes about 80 MB of float64 scratch, and saturating the team held
// 2.4–6 GB resident, more than a shared host can spare.
func objectsInputs(seed int64) (*inputs, error) {
	calib := dataset.Objects(dataset.ObjectsConfig{N: 64, H: 16, W: 16, Seed: modelSeed})
	spec, err := nn.ObjectsExpert(4, calib.C, calib.H, calib.W, calib.Classes)
	if err != nil {
		return nil, err
	}
	rng := tensor.NewRNG(modelSeed)
	team := &core.Team{Spec: spec, Classes: calib.Classes, Experts: make([]*nn.Network, 4)}
	var wg sync.WaitGroup
	for i := range team.Experts {
		e, err := spec.Build(rng.Split(int64(i + 1)))
		if err != nil {
			return nil, err
		}
		team.Experts[i] = e
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.Forward(calib.X, true)
		}()
	}
	wg.Wait()
	// More images than a 20 s run sends at the workload's rates, so no key
	// repeats and the cache never answers.
	pool := dataset.Objects(dataset.ObjectsConfig{N: 8192, H: 16, W: 16, Seed: seed})
	return newInputs(team, pool)
}

func newInputs(team *core.Team, pool *dataset.Dataset) (*inputs, error) {
	var buf bytes.Buffer
	if err := team.Save(&buf); err != nil {
		return nil, err
	}
	in := &inputs{
		bundle:  buf.Bytes(),
		version: fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))[:16],
		labels:  pool.Y,
	}
	// The pool lives outside the Go heap: tens of MB of inputs in the heap
	// would raise the collector's target and inflate rss_mb with garbage
	// the program would not hold on its own.
	raw, err := offHeap(8 * len(pool.X.Data))
	if err != nil {
		return nil, err
	}
	data := unsafe.Slice((*float64)(unsafe.Pointer(&raw[0])), len(pool.X.Data))
	copy(data, pool.X.Data)
	f := pool.Features()
	in.rows = make([]*tensor.Tensor, pool.Len())
	for i := range in.rows {
		in.rows[i] = &tensor.Tensor{Data: data[i*f : (i+1)*f : (i+1)*f], Shape: []int{1, f}}
	}
	return in, nil
}

// offHeap maps n zeroed bytes of anonymous memory. They are never unmapped;
// the process exits after the run.
func offHeap(n int) ([]byte, error) {
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("map input pool: %w", err)
	}
	return b, nil
}
