package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"

	"otfair/internal/obs"
)

// server is one fairserved child process on loopback. Its stderr log is
// scanned for the serving and pprof addresses it bound (both are asked
// for as port 0, so concurrent benchmarks never collide) and drained for
// the rest of its life.
type server struct {
	cmd       *exec.Cmd
	addr      string // host:port of the serving listener
	pprofAddr string // host:port of the pprof listener
	logDone   chan struct{}
	client    *http.Client
}

var addrRE = regexp.MustCompile(`addr=(\S+)`)

// startServer execs bin with a fresh store directory under workDir and
// returns once both listeners are up. TMPDIR points the repair spool
// inside workDir, so the server writes nothing outside the checkout.
//
// The server runs with GOMAXPROCS=1, so its default fan-out is the serial
// engine. On a shared two-vCPU host, a server spread over both vCPUs
// contends with the load generator and loses a variable share of its
// parallelism to steal: request latency then moved by a third between
// runs of identical code. The shard fan-out is measured in-process by the
// traced run instead (repairsvc.engine vs engine_serial).
func startServer(bin, workDir string, extra ...string) (*server, error) {
	store, err := os.MkdirTemp(workDir, "store-")
	if err != nil {
		return nil, err
	}
	args := append([]string{
		"-addr", "127.0.0.1:0",
		"-pprof-addr", "127.0.0.1:0",
		"-store", store,
		"-drift-watch",
		"-drain-grace", "0",
	}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "TMPDIR="+workDir, "GOMAXPROCS=1")
	// The child dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	s := &server{cmd: cmd, logDone: make(chan struct{})}
	addrs := make(chan [2]string, 1)
	go func() {
		defer close(s.logDone)
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64*1024), 1<<20)
		var serve, pprof string
		for sc.Scan() {
			line := sc.Text()
			if serve == "" || pprof == "" {
				m := addrRE.FindStringSubmatch(line)
				switch {
				case m == nil:
				case strings.Contains(line, "msg=\"pprof listening\""):
					pprof = m[1]
				case strings.Contains(line, "msg=listening"):
					serve = m[1]
				}
				if serve != "" && pprof != "" {
					addrs <- [2]string{serve, pprof}
				}
			}
		}
		_, _ = io.Copy(io.Discard, stderr)
	}()
	select {
	case a := <-addrs:
		s.addr, s.pprofAddr = a[0], a[1]
	case <-s.logDone:
		s.stop()
		return nil, errors.New("fairserved exited before listening")
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, errors.New("fairserved did not start listening within 30s")
	}
	s.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
	return s, nil
}

// stop terminates the child and waits for it and its log reader to end.
func (s *server) stop() {
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	exited := make(chan struct{})
	go func() {
		<-s.logDone
		_ = s.cmd.Wait()
		close(exited)
	}()
	select {
	case <-exited:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-exited
	}
}

func (s *server) url(path string) string { return "http://" + s.addr + path }

// post sends body and returns the whole response body, failing on any
// status but 200.
func (s *server) post(path, contentType string, body []byte) ([]byte, error) {
	resp, err := s.client.Post(s.url(path), contentType, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST %s: %s: %s", path, resp.Status, bytes.TrimSpace(out))
	}
	return out, nil
}

func (s *server) get(url string) ([]byte, error) {
	resp, err := s.client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return out, nil
}

// cpuSeconds reads the child's user and system CPU time from
// /proc/<pid>/stat.
func (s *server) cpuSeconds() (user, sys float64, err error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, 0, err
	}
	return parseProcStatCPU(raw)
}

// clockTicks is USER_HZ, the unit of the utime and stime fields. Linux
// fixes it at 100 for every architecture Go's syscall package exposes
// /proc on.
const clockTicks = 100

// parseProcStatCPU extracts utime and stime (fields 14 and 15) in
// seconds. The command name (field 2) is parenthesised and may hold
// spaces, so fields are counted from the last ')'.
func parseProcStatCPU(raw []byte) (user, sys float64, err error) {
	i := bytes.LastIndexByte(raw, ')')
	if i < 0 {
		return 0, 0, errors.New("malformed /proc stat: no command name")
	}
	f := strings.Fields(string(raw[i+1:]))
	// f[0] is field 3 (state); utime is field 14, stime field 15.
	if len(f) < 13 {
		return 0, 0, errors.New("malformed /proc stat: too few fields")
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, 0, fmt.Errorf("malformed /proc stat: %w", err)
	}
	return float64(ut) / clockTicks, float64(st) / clockTicks, nil
}

// heapStats reads the child's runtime.MemStats through pprof's heap
// endpoint; gc forces a collection first, so HeapAlloc is the live heap.
func (s *server) heapStats(gc bool) (memStats, error) {
	u := "http://" + s.pprofAddr + "/debug/pprof/heap?debug=1"
	if gc {
		u += "&gc=1"
	}
	raw, err := s.get(u)
	if err != nil {
		return memStats{}, err
	}
	return parseHeapDebug(raw)
}

type memStats struct {
	TotalAlloc, HeapAlloc uint64
}

// parseHeapDebug picks the "# TotalAlloc = N" and "# HeapAlloc = N" lines
// net/http/pprof appends to a debug=1 heap profile.
func parseHeapDebug(raw []byte) (memStats, error) {
	var ms memStats
	var seen int
	for _, line := range strings.Split(string(raw), "\n") {
		var dst *uint64
		switch {
		case strings.HasPrefix(line, "# TotalAlloc = "):
			dst = &ms.TotalAlloc
		case strings.HasPrefix(line, "# HeapAlloc = "):
			dst = &ms.HeapAlloc
		default:
			continue
		}
		v, err := strconv.ParseUint(strings.TrimSpace(line[strings.IndexByte(line, '=')+1:]), 10, 64)
		if err != nil {
			return ms, fmt.Errorf("heap profile: %q: %w", line, err)
		}
		*dst = v
		seen++
	}
	if seen != 2 {
		return ms, errors.New("heap profile: TotalAlloc/HeapAlloc lines missing")
	}
	return ms, nil
}

// scrape reads the child's Prometheus exposition into name{labels} → value.
func (s *server) scrape() (map[string]float64, error) {
	raw, err := s.get(s.url("/metrics"))
	if err != nil {
		return nil, err
	}
	samples, err := obs.ParseText(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(samples))
	for _, sm := range samples {
		out[sm.Key()] = sm.Value
	}
	return out, nil
}
