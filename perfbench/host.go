package main

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/teamnet/teamnet/internal/tensor"
)

// host identifies the machine and source a result came from, so a number
// from another host or commit is recognisable. End-to-end metrics are not
// normalised by the GEMM calibration; it is recorded beside them.
type host struct {
	CPUModel      string   `json:"cpu_model"`
	CPUFlags      []string `json:"cpu_flags"`
	NumCPU        int      `json:"nproc"`
	GOMAXPROCS    int      `json:"gomaxprocs"`
	GoVersion     string   `json:"go_version"`
	Commit        string   `json:"commit"`
	GEMM256GFLOPS float64  `json:"gemm256_gflops"`
}

// cpuFlagsOfInterest are the /proc/cpuinfo flags the tensor kernels or the
// Go runtime select code paths on.
var cpuFlagsOfInterest = []string{"sse4_2", "avx", "avx2", "fma", "avx512f"}

func hostInfo(root string) host {
	h := host{
		CPUModel:   "unknown",
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commitOf(root),
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			k, v, ok := strings.Cut(line, ":")
			if !ok {
				continue
			}
			switch strings.TrimSpace(k) {
			case "model name":
				h.CPUModel = strings.TrimSpace(v)
			case "flags":
				have := map[string]bool{}
				for _, f := range strings.Fields(v) {
					have[f] = true
				}
				h.CPUFlags = h.CPUFlags[:0]
				for _, f := range cpuFlagsOfInterest {
					if have[f] {
						h.CPUFlags = append(h.CPUFlags, f)
					}
				}
			}
		}
	}
	return h
}

// commitOf names the source under root: the git commit when root is a git
// checkout, else a digest of the Go sources and module files (a benchmark
// checkout is not a git repository).
func commitOf(root string) string {
	if head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD")); err == nil {
		ref := strings.TrimSpace(string(head))
		if name, ok := strings.CutPrefix(ref, "ref: "); ok {
			if id, err := os.ReadFile(filepath.Join(root, ".git", name)); err == nil {
				return strings.TrimSpace(string(id))
			}
			if packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
				for _, line := range strings.Split(string(packed), "\n") {
					if id, r, ok := strings.Cut(line, " "); ok && r == name {
						return id
					}
				}
			}
		} else if ref != "" {
			return ref
		}
	}
	var files []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if n := d.Name(); !d.IsDir() && (strings.HasSuffix(n, ".go") || strings.HasSuffix(n, ".s") || n == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	sum := sha256.New()
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(sum, "%s %d\n", rel, len(raw))
		sum.Write(raw)
	}
	return fmt.Sprintf("src-sha256:%x", sum.Sum(nil))[:27]
}

// gemmGFLOPS times MatMulInto on an m×k by k×n product and returns the
// median rate over reps calls.
func gemmGFLOPS(m, k, n, reps int) float64 {
	rng := tensor.NewRNG(1)
	a, b := rng.Randn(m, k), rng.Randn(k, n)
	dst := tensor.New(m, n)
	tensor.MatMulInto(dst, a, b)
	ds := make([]time.Duration, reps)
	for i := range ds {
		t := time.Now()
		tensor.MatMulInto(dst, a, b)
		ds[i] = time.Since(t)
	}
	return 2 * float64(m*k*n) / medianDuration(ds).Seconds() / 1e9
}

func medianDuration(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

// processCPU is the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssBytes is the process's resident set size now.
func rssBytes() int64 {
	f, err := os.Open("/proc/self/statm")
	if err != nil {
		return 0
	}
	defer f.Close()
	line, _ := bufio.NewReader(f).ReadString('\n')
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return 0
	}
	pages, _ := strconv.ParseInt(fields[1], 10, 64)
	return pages * int64(os.Getpagesize())
}

// rssPeak samples the resident set every 50 ms and keeps the highest value
// seen; VmHWM cannot be reset, and the input generation before set-up must
// not count. The Go runtime hands freed heap back to the OS gradually, so a
// peak outlasts the interval, and the sampler's own CPU stays out of
// cpu_ms_per_req.
type rssPeak struct {
	peak int64 // read only after done is closed
	stop chan struct{}
	done chan struct{}
}

func startRSSPeak() *rssPeak {
	p := &rssPeak{peak: rssBytes(), stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
				p.peak = max(p.peak, rssBytes())
			}
		}
	}()
	return p
}

// finish stops sampling and returns the peak.
func (p *rssPeak) finish() int64 {
	close(p.stop)
	<-p.done
	return max(p.peak, rssBytes())
}

// writeFile writes data to dir/name, creating dir.
func writeFile(dir, name string, data []byte) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	p := filepath.Join(dir, name)
	return p, os.WriteFile(p, data, 0o644)
}
