package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one launched drapool, draportal or dratfc process.
type daemon struct {
	name    string
	url     string
	dataDir string
	cmd     *exec.Cmd
	exited  chan struct{}
	err     error // exit status, valid once exited is closed
}

// deployment is the set of daemons one workload runs against.
type deployment struct {
	daemons []*daemon
	portal  *daemon
	tfc     *daemon // nil unless the workload routes through a TFC
	pools   []*daemon
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// start launches one daemon binary with its output in <dir>/<name>.log.
func start(bin, dir, name string, args ...string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-listen", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The daemons die with the benchmark even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	d := &daemon{name: name, url: "http://" + addr, cmd: cmd, exited: make(chan struct{})}
	go func() {
		d.err = cmd.Wait()
		logf.Close()
		close(d.exited)
	}()
	return d, nil
}

// waitReady polls GET /v1/readyz until it answers 200.
func (d *daemon) waitReady(ctx context.Context) error {
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.url+"/v1/readyz", nil)
		if err != nil {
			return err
		}
		if resp, err := http.DefaultClient.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-d.exited:
			return fmt.Errorf("%s exited before becoming ready: %v", d.name, d.err)
		case <-ctx.Done():
			return fmt.Errorf("%s never became ready: %w", d.name, ctx.Err())
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// stop sends SIGTERM and waits for the drain (final checkpoint) to
// finish; a daemon still running after the timeout is killed and the
// stop reports an error.
func (d *daemon) stop(timeout time.Duration) error {
	select {
	case <-d.exited:
		return fmt.Errorf("%s had already exited: %v", d.name, d.err)
	default:
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
		if d.err != nil {
			return fmt.Errorf("%s drain: %w", d.name, d.err)
		}
		return nil
	case <-time.After(timeout):
		_ = d.cmd.Process.Kill()
		<-d.exited
		return fmt.Errorf("%s did not drain within %s", d.name, timeout)
	}
}

// peakRSS reads the daemon's VmHWM in bytes.
func (d *daemon) peakRSS() (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return kb << 10, err
		}
	}
	return 0, fmt.Errorf("%s: no VmHWM in /proc status", d.name)
}

// provisionOpts selects the deployment shape and tracing of one launch.
type provisionOpts struct {
	bin, trust, tfcKey string
	tfc, cluster       bool
	traced             bool
}

// provision launches the workload's daemons into an empty directory with
// default flags plus -data-dir (fsync on) and waits until every
// /v1/readyz answers 200. Timed runs pass -trace-sample 0; the traced
// run passes -trace-sample 1 and exports portal and TFC spans with
// -trace-out (drapool has no exporter; its ring is scraped instead).
func provision(ctx context.Context, dir string, o provisionOpts) (*deployment, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	dep := &deployment{}
	sample := "0"
	if o.traced {
		sample = "1"
	}
	traceArgs := func(name string) []string {
		args := []string{"-trace-sample", sample}
		if o.traced {
			args = append(args, "-trace-out", filepath.Join(dir, name+".spans.jsonl"))
		}
		return args
	}
	launch := func(name, binName string, dataDir string, args ...string) (*daemon, error) {
		if dataDir != "" {
			if err := os.MkdirAll(dataDir, 0o755); err != nil {
				return nil, err
			}
		}
		d, err := start(filepath.Join(o.bin, binName), dir, name, args...)
		if err != nil {
			return nil, err
		}
		d.dataDir = dataDir
		dep.daemons = append(dep.daemons, d)
		return d, nil
	}
	fail := func(err error) (*deployment, error) {
		dep.kill()
		return nil, err
	}

	portalArgs := []string{"-trust", o.trust}
	portalData := filepath.Join(dir, "data", "portal")
	if o.cluster {
		var nodes []string
		for i := 1; i <= 3; i++ {
			id := fmt.Sprintf("n%d", i)
			d, err := launch("drapool-"+id, "drapool", filepath.Join(dir, "data", id),
				"-node-id", id, "-data-dir", filepath.Join(dir, "data", id))
			if err != nil {
				return fail(err)
			}
			dep.pools = append(dep.pools, d)
			nodes = append(nodes, id+"="+d.url)
		}
		for _, d := range dep.pools {
			if err := d.waitReady(ctx); err != nil {
				return fail(err)
			}
		}
		// The replication outbox is a journal file, not a -data-dir, so it
		// stays out of disk_bytes_per_doc_byte: it compacts every 512
		// acknowledgements, and its sawtooth size would be noise.
		portalArgs = append(portalArgs, "-cluster-nodes", strings.Join(nodes, ","),
			"-replicas", "2", "-cluster-wal", filepath.Join(dir, "replication-outbox.wal"))
		portalData = ""
	} else {
		portalArgs = append(portalArgs, "-data-dir", portalData)
	}
	p, err := launch("draportal", "draportal", portalData, append(portalArgs, traceArgs("draportal")...)...)
	if err != nil {
		return fail(err)
	}
	dep.portal = p
	if o.tfc {
		tfcData := filepath.Join(dir, "data", "tfc")
		t, err := launch("dratfc", "dratfc", tfcData, append([]string{"-trust", o.trust, "-key", o.tfcKey,
			"-data-dir", tfcData}, traceArgs("dratfc")...)...)
		if err != nil {
			return fail(err)
		}
		dep.tfc = t
	}
	for _, d := range dep.daemons {
		if err := d.waitReady(ctx); err != nil {
			return fail(err)
		}
	}
	return dep, nil
}

// stop drains every daemon: the portal first (it quiesces replication
// into the pool nodes), then the TFC and the pool nodes.
func (dep *deployment) stop() error {
	var errs []error
	for _, d := range dep.daemons {
		if d == dep.portal {
			errs = append(errs, d.stop(60*time.Second))
		}
	}
	for _, d := range dep.daemons {
		if d != dep.portal {
			errs = append(errs, d.stop(60*time.Second))
		}
	}
	return errors.Join(errs...)
}

// kill ends every daemon without a drain (error paths only).
func (dep *deployment) kill() {
	for _, d := range dep.daemons {
		select {
		case <-d.exited:
		default:
			_ = d.cmd.Process.Kill()
			<-d.exited
		}
	}
}

// peakRSS sums VmHWM over the daemons and reports each one's.
func (dep *deployment) peakRSS() (int64, map[string]int64, error) {
	var total int64
	each := map[string]int64{}
	for _, d := range dep.daemons {
		n, err := d.peakRSS()
		if err != nil {
			return 0, nil, err
		}
		total += n
		each[d.name] = n
	}
	return total, each, nil
}

// diskBytes sums the sizes of every file in the daemons' -data-dir
// directories.
func (dep *deployment) diskBytes() (int64, error) {
	var total int64
	for _, d := range dep.daemons {
		if d.dataDir == "" {
			continue
		}
		err := filepath.WalkDir(d.dataDir, func(_ string, e fs.DirEntry, err error) error {
			if err != nil || e.IsDir() {
				return err
			}
			info, err := e.Info()
			if err != nil {
				return err
			}
			total += info.Size()
			return nil
		})
		if err != nil {
			return 0, err
		}
	}
	return total, nil
}
