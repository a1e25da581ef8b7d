package main

import (
	"bufio"
	"errors"
	"math"
	"math/big"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
)

func sinceS(t time.Time) float64 { return time.Since(t).Seconds() }

// quantile returns the q-quantile of xs by the "exclusive" rule of
// Python's statistics.quantiles (position q*(n+1), interpolated and
// clamped to the sample), the rule the benchmark's spread check uses.
func quantile(xs []float64, q float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	switch n {
	case 0:
		return 0 // only in a failed run; JSON has no NaN
	case 1:
		return s[0]
	}
	h := q * float64(n+1)
	j := int(math.Floor(h))
	frac := h - float64(j)
	if j < 1 {
		j, frac = 1, 0
	}
	if j > n-1 {
		j, frac = n-1, 1
	}
	return s[j-1] + frac*(s[j]-s[j-1])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (quantile(xs, 0.75) - quantile(xs, 0.25)) / math.Abs(m)
}

// sentinelMod is the fixed 512-bit modulus of the drift sentinel.
var sentinelMod = func() *big.Int {
	r := rand.New(rand.NewSource(20150525))
	m := new(big.Int).Rand(r, new(big.Int).Lsh(big.NewInt(1), 512))
	return m.SetBit(m, 511, 1).SetBit(m, 0, 1)
}()

// sentinelIters is the length of one sentinel sample, about 25 ms on an
// idle 2 GHz core: long enough to average over the hypervisor's
// scheduling slices, which a sample of a few milliseconds can fall
// between.
const sentinelIters = 240

// sentinel runs a fixed math/big modexp loop iters times on each of n
// goroutines at once and returns the mean time per goroutine in
// milliseconds, scaled to sentinelIters iterations. It owns no state of
// the program under test, so a shift in its samples is a shift in the
// host, not the code. Work that keeps every CPU busy (a scan) is
// normalised by the sentinel on every CPU; work done one request at a
// time (the registry server) by the sentinel on one goroutine.
func sentinel(n, iters int) float64 {
	ms := make([]float64, n)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := big.NewInt(3)
			e := new(big.Int).Sub(sentinelMod, big.NewInt(1))
			start := time.Now()
			for i := 0; i < iters; i++ {
				x.Exp(x, e, sentinelMod)
			}
			ms[g] = float64(time.Since(start).Nanoseconds()) / 1e6
		}()
	}
	wg.Wait()
	sum := 0.0
	for _, v := range ms {
		sum += v
	}
	return sum / float64(n) * sentinelIters / float64(iters)
}

// noisyIQR is the sentinel spread above which a run is flagged noisy.
const noisyIQR = 0.10

// sentinelRefMS is the sentinel time of the reference host. Every
// reported time is normalised to it: an interval t measured right after
// a sentinel sample s is reported as t * sentinelRefMS / s. Shared
// hosts change speed by tens of percent for seconds at a time; the
// sentinel slows with them, so the ratio stays put while raw times do
// not. Raw times are kept in each result's extras.
const sentinelRefMS = 30.0

// normalize scales each interval by the sentinel sample taken before it.
func normalize(xs, calib []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * sentinelRefMS / calib[i]
	}
	return out
}

// peakRSSMB reads a process's peak resident set (VmHWM) in MiB from
// /proc/<pid>/status; pid is a number or "self". The rusage maxrss of a
// child is no substitute: Linux carries the parent's peak into it when
// the child is started with a shared address space, as Go starts them.
func peakRSSMB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/" + pid + "/status")
}

// host is the fingerprint stored with every result.
type host struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func fingerprint() host {
	h := host{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		CPU:        "unknown",
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			h.Commit = rev + dirty
		}
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}
