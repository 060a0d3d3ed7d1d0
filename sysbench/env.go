package main

import (
	"bufio"
	"crypto"
	"crypto/rsa"
	"crypto/sha256"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// env records where and on what a run was measured. The RSA probe is
// recorded to show machine drift; no metric is scaled by it.
type env struct {
	GoVersion    string  `json:"go_version"`
	NProc        int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	Commit       string  `json:"commit"`
	SourceDigest string  `json:"source_digest"`
	CPUModel     string  `json:"cpu_model"`
	FlushPolicy  string  `json:"flush_policy"`
	RSASignMs    float64 `json:"rsa2048_sign_ms_before"`
	RSASignMsEnd float64 `json:"rsa2048_sign_ms_after"`
	// CompletionsPer5s counts acknowledged steps per 5 s of the timed
	// window, so a window whose rate drifted shows.
	CompletionsPer5s []int `json:"completions_per_5s"`
	// CPUShares splits the machine's CPU time over the window (/proc/stat):
	// user, system, iowait, idle, and steal — time the hypervisor gave to
	// other guests.
	CPUShares  map[string]float64 `json:"cpu_shares"`
	PeakRSSMiB map[string]float64 `json:"peak_rss_mib"`
}

func newEnv(commit, digest string) *env {
	return &env{
		GoVersion:    runtime.Version(),
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		Commit:       commit,
		SourceDigest: digest,
		CPUModel:     cpuModel(),
		FlushPolicy:  "daemon defaults: fsync on every WAL append (-fsync=true), -data-dir on every daemon",
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// rsaProbe times a fixed stdlib RSA-2048 PKCS#1 v1.5 signing loop and
// returns milliseconds per signature.
func rsaProbe(key *rsa.PrivateKey) float64 {
	const n = 32
	digest := sha256.Sum256([]byte("sysbench machine probe"))
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if _, err := rsa.SignPKCS1v15(nil, key, crypto.SHA256, digest[:]); err != nil {
			return 0
		}
	}
	return ms(time.Since(t0)) / n
}

// per5s buckets completion offsets into 5-second bins.
func per5s(done []time.Duration, window time.Duration) []int {
	bins := make([]int, int((window+5*time.Second-1)/(5*time.Second)))
	for _, d := range done {
		i := int(d / (5 * time.Second))
		if i >= len(bins) {
			i = len(bins) - 1
		}
		if i >= 0 {
			bins[i]++
		}
	}
	return bins
}

// cpuTimes is the aggregate "cpu" line of /proc/stat: user nice system
// idle iowait irq softirq steal, in ticks (guest time is already inside
// user and nice).
type cpuTimes [8]uint64

func readCPU() cpuTimes {
	var c cpuTimes
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return c
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	for i := range c {
		if i+1 < len(fields) {
			c[i], _ = strconv.ParseUint(fields[i+1], 10, 64)
		}
	}
	return c
}

// shares returns each kind of CPU time since before as a share of all.
func (c cpuTimes) shares(before cpuTimes) map[string]float64 {
	var d cpuTimes
	var total float64
	for i := range c {
		d[i] = c[i] - before[i]
		total += float64(d[i])
	}
	return map[string]float64{
		"user":   ratio(float64(d[0]+d[1]), total),
		"system": ratio(float64(d[2]+d[5]+d[6]), total),
		"idle":   ratio(float64(d[3]), total),
		"iowait": ratio(float64(d[4]), total),
		"steal":  ratio(float64(d[7]), total),
	}
}

// writeBack flushes every dirty page to disk (sync(2)), so a timed
// phase does not pay for writeback the previous one left behind.
func writeBack() { syscall.Sync() }
