package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"otfair/internal/blind"
	"otfair/internal/blindsvc"
	"otfair/internal/core"
	"otfair/internal/dataset"
	"otfair/internal/fairmetrics"
	"otfair/internal/repairsvc"
	"otfair/internal/rng"
)

// serveSpec is one out-of-process workload: a closed loop of requests of
// one shape against a fairserved child.
type serveSpec struct {
	blind   bool
	perBody int // records per request
	bodies  int // size of the rotating body pool
	// checkRequests is how many fixed-seed requests the correctness check
	// sends; blind requests are small, so E is measured over several.
	checkRequests int
}

func (sp serveSpec) format() string {
	if sp.blind {
		return "ndjson"
	}
	return "csv"
}

func (sp serveSpec) contentType() string {
	if sp.blind {
		return "application/x-ndjson"
	}
	return "text/csv"
}

// The plan every serve workload designs: n_R = 500, NQ = 100, Sinkhorn.
var (
	designQuery   = "nq=100&solver=sinkhorn"
	designOptions = core.Options{NQ: 100, Solver: core.SolverSinkhorn}
)

const (
	// checkSeed is the request seed of the correctness check.
	checkSeed = 20240313
	// checkWorkers is the fan-out the check pins on both sides.
	checkWorkers = 2
	// setupBoots is how many fresh servers a run boots; setup_s is their
	// median, since on a shared host one boot's time swings by a tenth.
	// The last of the first setupBootsBefore is the one timed; the rest
	// boot after the timed phase, so the median samples the host's state
	// across the whole run.
	setupBoots       = 7
	setupBootsBefore = 4
)

// serveRef is the in-process reference the server's answers must match.
type serveRef struct {
	plan     *core.Plan
	planID   string
	cal      *blind.Calibration
	calID    string
	labelled *repairsvc.Engine
	blindE   *blindsvc.Engine
}

func newServeRef(sp serveSpec, in *serveInputs) (*serveRef, error) {
	ref := &serveRef{}
	var err error
	if ref.plan, err = core.Design(in.research, designOptions); err != nil {
		return nil, err
	}
	if ref.planID, err = ref.plan.Fingerprint(); err != nil {
		return nil, err
	}
	if !sp.blind {
		ref.labelled, err = repairsvc.NewEngine(ref.plan, repairsvc.Options{Workers: checkWorkers})
		return ref, err
	}
	if ref.cal, err = blind.NewCalibration(ref.plan, in.research); err != nil {
		return nil, err
	}
	if ref.calID, err = ref.cal.Fingerprint(); err != nil {
		return nil, err
	}
	ref.blindE, err = blindsvc.NewEngine(ref.plan, ref.cal, blindsvc.Options{Workers: checkWorkers})
	return ref, err
}

// repair runs one request through the in-process engine.
func (ref *serveRef) repair(sp serveSpec, seed uint64, body []byte) ([]dataset.Record, error) {
	var in dataset.Stream
	var err error
	if sp.blind {
		in, err = decodeNDJSONStream(body)
	} else {
		in, err = dataset.NewCSVStream(bytes.NewReader(body))
	}
	if err != nil {
		return nil, err
	}
	var out []dataset.Record
	sink := func(rec dataset.Record) error {
		out = append(out, rec)
		return nil
	}
	if sp.blind {
		_, _, _, err = ref.blindE.RepairStream(rng.New(seed), blind.MethodDraw, in, sink)
	} else {
		_, _, err = ref.labelled.RepairStream(rng.New(seed), in, sink)
	}
	return out, err
}

func decodeNDJSONStream(body []byte) (dataset.Stream, error) {
	recs, err := decodeResponse("ndjson", body)
	if err != nil {
		return nil, err
	}
	t, err := dataset.NewTable(len(recs[0].X), nil)
	if err != nil {
		return nil, err
	}
	if err := t.AppendAll(recs); err != nil {
		return nil, err
	}
	return dataset.NewSliceStream(t), nil
}

// serveRun is one booted server with the artefacts it was set up with and
// the repair traffic it has answered, for the counter cross-check.
type serveRun struct {
	srv           *server
	planID, calID string
	okRequests    int
	recordsServed int
	buf           []byte // response read buffer
}

func (r *serveRun) repairPath(sp serveSpec, seed uint64, workers int) string {
	q := "/v1/repair?seed=" + strconv.FormatUint(seed, 10)
	if sp.blind {
		q += "&calibration=" + r.calID + "&method=draw"
	} else {
		q += "&plan=" + r.planID
	}
	if workers > 0 {
		q += "&workers=" + strconv.Itoa(workers)
	}
	return q
}

// boot execs a server and brings it to serving: design, store write,
// calibration (blind), and a warm-up request that binds the engine. It
// returns the elapsed time from exec to the end of the warm-up.
func boot(cfg config, sp serveSpec, in *serveInputs, ref *serveRef, extra ...string) (*serveRun, float64, error) {
	start := time.Now()
	srv, err := startServer(cfg.serverBin, cfg.workDir, extra...)
	if err != nil {
		return nil, 0, err
	}
	run := &serveRun{srv: srv}
	fail := func(err error) (*serveRun, float64, error) {
		srv.stop()
		return nil, 0, err
	}
	var created struct {
		ID string `json:"id"`
	}
	raw, err := srv.post("/v1/plans?"+designQuery, "text/csv", in.researchCSV)
	if err == nil {
		err = json.Unmarshal(raw, &created)
	}
	if err != nil {
		return fail(fmt.Errorf("designing plan: %w", err))
	}
	if run.planID = created.ID; run.planID != ref.planID {
		return fail(fmt.Errorf("server plan %s differs from in-process design %s", run.planID, ref.planID))
	}
	if sp.blind {
		raw, err = srv.post("/v1/calibrations?plan="+run.planID, "text/csv", in.researchCSV)
		if err == nil {
			err = json.Unmarshal(raw, &created)
		}
		if err != nil {
			return fail(fmt.Errorf("calibrating: %w", err))
		}
		if run.calID = created.ID; run.calID != ref.calID {
			return fail(fmt.Errorf("server calibration %s differs from in-process fit %s", run.calID, ref.calID))
		}
	}
	n, err := run.send(sp, 1, in.pool.bodies[0])
	if err == nil && n != in.pool.tables[0].Len() {
		err = fmt.Errorf("%d records back, want %d", n, in.pool.tables[0].Len())
	}
	if err != nil {
		return fail(fmt.Errorf("warm-up request: %w", err))
	}
	return run, time.Since(start).Seconds(), nil
}

// send posts one repair request, drains the response and returns the
// number of records in it.
func (r *serveRun) send(sp serveSpec, seed uint64, body []byte) (int, error) {
	resp, err := r.srv.client.Post(r.srv.url(r.repairPath(sp, seed, 0)), sp.contentType(), bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if r.buf == nil {
		r.buf = make([]byte, 64*1024)
	}
	lines := 0
	for {
		k, err := resp.Body.Read(r.buf)
		lines += bytes.Count(r.buf[:k], []byte{'\n'})
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, err
		}
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("repair: %s", resp.Status)
	}
	if !sp.blind {
		lines-- // CSV header
	}
	r.okRequests++
	r.recordsServed += lines
	return lines, nil
}

// pass is one closed-loop timed phase against a server.
type pass struct {
	requests, failed, records int
	wall                      float64   // seconds
	latency                   []float64 // seconds, one per successful request
	cpu, sysCPU               float64   // server CPU seconds: user+sys, sys
	alloc                     uint64    // server heap bytes allocated
	liveHeap                  uint64    // server live heap after a forced GC
	eRatio                    float64   // E(repaired)/E(original) of the check
	before, after             map[string]float64
}

// drive runs the closed loop for d: one connection, the next request sent
// when the previous response has been read to the end, bodies taken from
// the pool in rotation. With scrape it also reads /metrics at both ends,
// for the stage histograms.
func (r *serveRun) drive(sp serveSpec, in *serveInputs, d time.Duration, seedBase uint64, scrape bool) (*pass, error) {
	p := &pass{}
	var err error
	if scrape {
		if p.before, err = r.srv.scrape(); err != nil {
			return nil, err
		}
	}
	ms0, err := r.srv.heapStats(false)
	if err != nil {
		return nil, err
	}
	user0, sys0, err := r.srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	for i := 0; time.Since(start) < d; i++ {
		b := i % len(in.pool.bodies)
		t0 := time.Now()
		n, err := r.send(sp, seedBase+uint64(i), in.pool.bodies[b])
		p.requests++
		if err != nil || n != in.pool.tables[b].Len() {
			p.failed++
			continue
		}
		p.latency = append(p.latency, time.Since(t0).Seconds())
		p.records += n
	}
	p.wall = time.Since(start).Seconds()
	user1, sys1, err := r.srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	p.sysCPU = sys1 - sys0
	p.cpu = user1 - user0 + p.sysCPU
	ms1, err := r.srv.heapStats(false)
	if err != nil {
		return nil, err
	}
	p.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	// Two forced collections: the first only moves sync.Pool contents to
	// the victim cache, the second frees them, so the live heap does not
	// depend on what the last requests left pooled.
	for i := 0; i < 2; i++ {
		if ms1, err = r.srv.heapStats(true); err != nil {
			return nil, err
		}
	}
	p.liveHeap = ms1.HeapAlloc
	if scrape {
		if p.after, err = r.srv.scrape(); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// check sends the fixed check requests and one request from the seeded
// pool, all at fixed request seeds, and demands record-for-record equality
// with the in-process engines at the same seed and worker count. It
// returns E(repaired)/E(original) over the fixed requests, with the
// generator's true s.
func (r *serveRun) check(sp serveSpec, in *serveInputs, ref *serveRef) (float64, error) {
	var orig, repaired []dataset.Record
	var truth []int
	sendAndCompare := func(seed uint64, body []byte) ([]dataset.Record, error) {
		raw, err := r.srv.post(r.repairPath(sp, seed, checkWorkers), sp.contentType(), body)
		if err != nil {
			return nil, err
		}
		got, err := decodeResponse(sp.format(), raw)
		if err != nil {
			return nil, err
		}
		r.okRequests++
		r.recordsServed += len(got)
		want, err := ref.repair(sp, seed, body)
		if err != nil {
			return nil, fmt.Errorf("in-process reference: %w", err)
		}
		if err := compareRecords(got, want); err != nil {
			return nil, fmt.Errorf("repair at seed %d differs from the library: %w", seed, err)
		}
		return got, nil
	}
	if _, err := sendAndCompare(checkSeed-1, in.pool.bodies[0]); err != nil {
		return 0, err
	}
	for i, body := range in.check.bodies {
		got, err := sendAndCompare(uint64(checkSeed+i), body)
		if err != nil {
			return 0, err
		}
		orig = append(orig, in.check.tables[i].Records()...)
		repaired = append(repaired, got...)
		truth = append(truth, in.check.truth[i]...)
	}
	return eRatio(orig, repaired, truth)
}

// eRatio is E(repaired)/E(original) with the generator's s attached.
func eRatio(orig, repaired []dataset.Record, truth []int) (float64, error) {
	before, err := withLabels(orig, truth)
	if err != nil {
		return 0, err
	}
	after, err := withLabels(repaired, truth)
	if err != nil {
		return 0, err
	}
	e0, err := fairmetrics.E(before, fairmetrics.Config{})
	if err != nil {
		return 0, err
	}
	e1, err := fairmetrics.E(after, fairmetrics.Config{})
	if err != nil {
		return 0, err
	}
	return e1 / e0, nil
}

// crossCheck compares the generator's tally with the server's own
// counters: every repair request answered 200, and the records total
// matches what came back.
func (r *serveRun) crossCheck() error {
	m, err := r.srv.scrape()
	if err != nil {
		return err
	}
	var ok, other float64
	for key, v := range m {
		if !strings.HasPrefix(key, "otfair_http_requests_total{") || !strings.Contains(key, `route="repair"`) {
			continue
		}
		if strings.Contains(key, `code="200"`) {
			ok += v
		} else {
			other += v
		}
	}
	if int(ok) != r.okRequests || other != 0 {
		return fmt.Errorf("server counted %v repair 200s and %v others; generator saw %d successes", ok, other, r.okRequests)
	}
	if got := m["otfair_repair_records_total"]; int(got) != r.recordsServed {
		return fmt.Errorf("server counted %v records repaired; generator received %d", got, r.recordsServed)
	}
	return nil
}

// stageSum is the growth of a stage histogram's _sum between scrapes.
func stageSum(p *pass, stage string) float64 {
	key := `otfair_repair_stage_seconds_sum{stage="` + stage + `"}`
	return p.after[key] - p.before[key]
}

var (
	// labelledCSV is the archival dump: 20 000 labelled records per
	// request as CSV, on the ROADMAP's headline path.
	labelledCSV = serveSpec{perBody: 20000, bodies: 8, checkRequests: 1}
	// blindNDJSON is online traffic with no s label: 2 048-record NDJSON
	// requests repaired by posterior draws. At 256 records (1.6 ms a
	// request) a few ms of host stall, on the shared disk the request
	// spool lives on or from steal, landed on over a tenth of the requests
	// in some runs and not others: p90 spread by 40 % and throughput by
	// 20 % across ten runs of identical code. At 2 048 records a request
	// takes about 10 ms and absorbs such stalls.
	blindNDJSON = serveSpec{blind: true, perBody: 2048, bodies: 64, checkRequests: 5}
)

// runServe runs a serve workload. The untraced run boots setupBoots
// servers (setup_s is their median), drives the last one for the timed
// phase, checks its output and counters, and reports end-to-end metrics.
// The traced run drives one untraced and one traced (-trace-sample 1)
// server for half the time each and then times every layer in-process.
func runServe(cfg config, sp serveSpec) (*outcome, error) {
	in, err := genServeInputs(cfg.seed, sp)
	if err != nil {
		return nil, err
	}
	ref, err := newServeRef(sp, in)
	if err != nil {
		return nil, err
	}
	o := &outcome{}
	boots := setupBootsBefore
	d := seconds(cfg.seconds)
	if cfg.trace {
		boots, d = 1, d/2
	}
	var setups []float64
	var run *serveRun
	for b := 0; b < boots; b++ {
		if run != nil {
			run.srv.stop()
		}
		var s float64
		if run, s, err = boot(cfg, sp, in, ref); err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}
	untraced, err := runPass(o, run, sp, in, ref, d, false)
	if err != nil {
		return nil, err
	}
	if !cfg.trace {
		for b := boots; b < setupBoots; b++ {
			late, s, err := boot(cfg, sp, in, ref)
			if err != nil {
				return nil, err
			}
			late.srv.stop()
			setups = append(setups, s)
		}
		o.note("setup boots (s): %v", setups)
		o.note("host.parallel_capacity %.3f (2-goroutine / 1-goroutine spin)", parallelCapacity())
		addEndToEnd(o, untraced, median(setups))
		return o, nil
	}
	tracedRun, _, err := boot(cfg, sp, in, ref, "-trace-sample", "1")
	if err != nil {
		return nil, err
	}
	traced, err := runPass(o, tracedRun, sp, in, ref, d, true)
	if err != nil {
		return nil, err
	}
	if err := serveLayers(o, cfg.workDir, sp, in, ref, untraced, traced); err != nil {
		return nil, err
	}
	return o, nil
}

// runPass drives one booted server for d, then runs the correctness check
// and the counter cross-check against it and stops it.
func runPass(o *outcome, run *serveRun, sp serveSpec, in *serveInputs, ref *serveRef, d time.Duration, scrape bool) (*pass, error) {
	defer run.srv.stop()
	p, err := run.drive(sp, in, d, 2, scrape)
	if err != nil {
		return nil, err
	}
	if len(p.latency) == 0 {
		return nil, fmt.Errorf("no request succeeded in the timed phase")
	}
	o.attempted += p.requests + 1 + sp.checkRequests
	o.failed += p.failed
	eRatio, err := run.check(sp, in, ref)
	o.problem(err)
	o.problem(run.crossCheck())
	p.eRatio = eRatio
	o.note("pass: %d requests (%d failed), %d records in %.3fs; server cpu %.3fs (%.3fs sys)", p.requests, p.failed, p.records, p.wall, p.cpu, p.sysCPU)
	return p, nil
}

// addEndToEnd reports the user-visible metrics of a timed phase. The p99
// latency is printed but not reported as a metric: on a shared 2-vCPU
// host it moved by more than a quarter between runs of identical code,
// even with 10 000 samples per run, so a bound on it would gate the host.
func addEndToEnd(o *outcome, p *pass, setup float64) {
	lat := durationsMS(p.latency)
	o.note("latency samples: %d (p90 has %d beyond it, p99 %d)", len(lat), len(lat)/10, len(lat)/100)
	o.note("latency_p99_ms %.6g ms (printed only)", quantile(lat, 0.99))
	o.add("records_per_s", float64(p.records)/p.wall, "records/s")
	o.add("latency_p50_ms", quantile(lat, 0.50), "ms")
	o.add("latency_p90_ms", quantile(lat, 0.90), "ms")
	o.add("cpu_us_per_record", p.cpu*1e6/float64(p.records), "us")
	o.add("alloc_bytes_per_record", float64(p.alloc)/float64(p.records), "B")
	o.add("live_heap_mb", float64(p.liveHeap)/1e6, "MB")
	o.add("e_ratio", p.eRatio, "ratio")
	o.add("setup_s", setup, "s")
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
