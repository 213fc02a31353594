// Command perfbench is the repository's benchmark. One process runs one
// workload against the system's own packages, drives each layer through
// its public functions, checks that the outputs are correct and prints
// every metric by name and unit; the last line of standard output is a
// JSON object with the keys correct, attempted, failed and metrics.
//
//	go run ./perfbench --workload device-window --seed 1 --seconds 10 --trace 0
//	go run ./perfbench --workload all            # every workload, untraced and traced
//	go run ./perfbench --describe > BENCHMARK.json
//
// With --trace 0 the metrics are the end-to-end metrics. With --trace 1 the
// measured phase is run twice in one process, untraced and then traced,
// each for half the seconds; the traced half records spans around the
// benchmark's calls into each layer, and the per-layer metrics and the
// tracing overhead come from it. End-to-end metrics always come from
// untraced runs. A per-layer metric that a workload does not exercise
// reads 0. Spans are written to <work>/spans-<workload>-<seed>.jsonl.
//
// Every input is derived from --seed; the program under test receives
// only the generated inputs. The default seed is 1; a gain is to be
// confirmed on the held-out seed 20261017 as well.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Seeds: defaultSeed drives ordinary runs; heldOutSeed is kept out of
// tuning so a claimed gain can be re-checked on inputs nobody tuned for.
const (
	defaultSeed = 1
	heldOutSeed = 20261017
)

// runSeconds is how long one run measures by default.
const runSeconds = 20

// setupRounds is how many times each run sets its workload up; setup_s
// is the median.
const setupRounds = 3

// metricDef describes one reported metric.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one; op_* and throughput_per_s refer to the workload's
// primary op, and op_tail_ms to its tail percentile, both named in the
// workload's description.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"heap_mb", "MiB", "lower", 0.1},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_tail_ms", "ms", "lower", 0.25},
	{"throughput_per_s", "1/s", "higher", 0.25},
	{"genuine_accept", "ratio", "higher", 0.1},
	{"mimic_accept", "ratio", "lower", 0.25},
}

// perLayer are the traced run's metrics: times around public calls into
// one layer, and counter deltas read before and after the measured phase.
var perLayer = []metricDef{
	{Name: "sensing.generate_us", Unit: "us", Better: "lower"},
	{Name: "dsp.stats_us", Unit: "us", Better: "lower"},
	{Name: "dsp.spectrum_us", Unit: "us", Better: "lower"},
	{Name: "dsp.peaks_us", Unit: "us", Better: "lower"},
	{Name: "features.extract_us", Unit: "us", Better: "lower"},
	{Name: "features.extract_self_us", Unit: "us", Better: "lower"},
	{Name: "ctxdetect.detect_us", Unit: "us", Better: "lower"},
	{Name: "core.authenticate_us", Unit: "us", Better: "lower"},
	{Name: "core.authenticate_self_us", Unit: "us", Better: "lower"},
	{Name: "core.response_us", Unit: "us", Better: "lower"},
	{Name: "transport.single_us", Unit: "us", Better: "lower"},
	{Name: "transport.single_self_us", Unit: "us", Better: "lower"},
	{Name: "transport.batch_us", Unit: "us", Better: "lower"},
	{Name: "transport.batch_self_us", Unit: "us", Better: "lower"},
	{Name: "transport.stream_us", Unit: "us", Better: "lower"},
	{Name: "transport.stream_self_us", Unit: "us", Better: "lower"},
	{Name: "transport.v2_requests", Unit: "count", Better: "higher"},
	{Name: "transport.batch_windows", Unit: "count", Better: "higher"},
	{Name: "transport.stream_windows", Unit: "count", Better: "higher"},
	{Name: "transport.stream_sessions", Unit: "count", Better: "higher"},
	{Name: "transport.auth_us", Unit: "us", Better: "lower"},
	{Name: "transport.enroll_ms", Unit: "ms", Better: "lower"},
	{Name: "transport.train_ms", Unit: "ms", Better: "lower"},
	{Name: "core.train_ms", Unit: "ms", Better: "lower"},
	{Name: "transport.train_completed", Unit: "count", Better: "higher"},
	{Name: "transport.train_rejected", Unit: "count", Better: "lower"},
	{Name: "retrain.scheduled", Unit: "count", Better: "lower"},
	{Name: "retrain.incremental", Unit: "count", Better: "lower"},
	{Name: "retrain.cold", Unit: "count", Better: "lower"},
	{Name: "store.open_ms", Unit: "ms", Better: "lower"},
	{Name: "store.latest_model_us", Unit: "us", Better: "lower"},
	{Name: "store.records", Unit: "count", Better: "higher"},
	{Name: "store.wal_bytes", Unit: "bytes", Better: "lower"},
	{Name: "cas.chunks", Unit: "count", Better: "lower"},
	{Name: "cas.stored_bytes", Unit: "bytes", Better: "lower"},
	{Name: "replication.visible_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.heap_mb", Unit: "MiB", Better: "lower"},
	{Name: "bench.late_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.trace_overhead", Unit: "ratio", Better: "lower"},
}

// workloadDef is one named workload.
type workloadDef struct {
	name string
	why  string
	run  func(cfg config) (*result, error)
}

var workloads = []workloadDef{
	{"device-window", "closed loop, one goroutine; op = one 6 s phone+watch window through dsp, features, ctxdetect, core and response (tail p95); no transport, store or training", runDevice},
	{"auth-serve", "open loop, durable server, hot trained cohort; op = one single-window authenticate beside batch and stream traffic (tail p90); throughput = capacity on a rate ladder", runServe},
	{"population-churn", "10 000 stored users, drift retraining on; op = one authenticate (tail p99) beside enrolls and a cold train every 2 s; model-cache misses and restart", runChurn},
	{"replicated-write", "2-node shard-ownership cluster, RouteByShard client; op = one enroll or re-enroll acked by the owner (tail p95), stores without fsync, with mesh replication and authenticate batches", runReplicated},
}

// config is one run's settings.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	dir     string // scratch directory for stores; removed at exit
	work    string // directory span files are written to
}

// measured returns the length of an untraced measured phase, or of each
// half of a traced run.
func (c config) measured() time.Duration {
	d := time.Duration(c.seconds * float64(time.Second))
	if c.trace {
		return d / 2
	}
	return d
}

// result is everything one run reports.
type result struct {
	mu                          sync.Mutex // guards the tallies and gates
	attempted, ok, failed, busy int64

	e2e    map[string]float64
	layers map[string]float64
	// report holds the human-readable lines, which also carry each
	// workload's own metric names (auth_p99_ms, train_p50_ms, ...).
	report       []string
	gates        []string // failed correctness gates
	gateFailures int
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layers: map[string]float64{}}
}

// gate records a correctness check; a false ok fails the run. Only the
// first maxGateMessages failures are kept verbatim.
func (r *result) gate(ok bool, format string, args ...any) {
	if ok {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gateFailures++
	if len(r.gates) < maxGateMessages {
		r.gates = append(r.gates, fmt.Sprintf(format, args...))
	}
}

const maxGateMessages = 20

func (r *result) line(format string, args ...any) {
	r.report = append(r.report, fmt.Sprintf(format, args...))
}

// count folds one op's outcome into the tallies.
func (r *result) count(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	switch {
	case err == nil:
		r.ok++
	case isBusy(err):
		r.busy++
	default:
		r.failed++
	}
}

func (r *result) failedShare() float64 {
	if r.attempted == 0 {
		return 0
	}
	return float64(r.failed+r.busy) / float64(r.attempted)
}

// acceptTally counts accepted and rejected decisions per window kind.
type acceptTally struct {
	genuine, genuineOK, mimic, mimicOK int64
}

func (a *acceptTally) add(mimic, accepted bool) {
	if mimic {
		a.mimic++
		if accepted {
			a.mimicOK++
		}
		return
	}
	a.genuine++
	if accepted {
		a.genuineOK++
	}
}

func (a *acceptTally) merge(o acceptTally) {
	a.genuine += o.genuine
	a.genuineOK += o.genuineOK
	a.mimic += o.mimic
	a.mimicOK += o.mimicOK
}

// report sets the accept-rate metrics and gates on having seen both kinds.
func (a *acceptTally) report(r *result) {
	r.gate(a.genuine > 0 && a.mimic > 0, "no genuine or no mimicry decisions (%d genuine, %d mimic)", a.genuine, a.mimic)
	r.e2e["genuine_accept"] = ratio(a.genuineOK, a.genuine)
	r.e2e["mimic_accept"] = ratio(a.mimicOK, a.mimic)
	r.line("genuine_accept = %.4f ratio (%d windows)", r.e2e["genuine_accept"], a.genuine)
	r.line("mimic_accept = %.4f ratio (%d windows)", r.e2e["mimic_accept"], a.mimic)
}

func ratio(n, d int64) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// knownContext reports whether a decision names a coarse context.
func knownContext(ctx string) bool { return ctx == "stationary" || ctx == "moving" }

// finite reports whether a score is a usable number.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// repeatSetup runs setup rounds times, tearing down all but the last, and
// returns the median setup time in seconds.
func repeatSetup(rounds int, setup func() (teardown func(), err error)) (float64, error) {
	var times Samples
	for k := range rounds {
		start := time.Now()
		teardown, err := setup()
		times.Add(time.Since(start).Seconds())
		if err != nil {
			return 0, err
		}
		if k < rounds-1 {
			teardown()
		}
	}
	return times.Median(), nil
}

// heapMiB forces a collection and returns the live heap.
func heapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// gcPauses returns the total stop-the-world pause so far.
func gcPauses() time.Duration {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return time.Duration(ms.PauseTotalNs)
}

// setCommon records the metrics every workload reports the same way.
func (r *result) setCommon(setupS, heap float64) {
	r.e2e["setup_s"] = setupS
	r.e2e["heap_mb"] = heap
	r.line("setup_s = %.4f s (median of %d set-ups)", setupS, setupRounds)
	r.line("heap_mb = %.2f MiB (live heap after set-up)", heap)
}

// setLatency records the primary op's latency samples (in nanoseconds) as
// op_p50_ms and op_tail_ms, the tail quantile, and reports them with p95
// and p99 under the workload's own metric names. Each workload gates the
// highest tail that a ten-second run measures steadily: p99 where the
// tail is set by the system's own stalls, p95 where a p99 would be set by
// a handful of disk-flush stalls of the host.
func (r *result) setLatency(alias string, lat *Samples, tail float64) {
	r.gate(lat.Len() >= 1000, "only %d latency samples; a tail needs at least 1000", lat.Len())
	r.e2e["op_p50_ms"] = lat.Median() / 1e6
	r.e2e["op_tail_ms"] = lat.Quantile(tail) / 1e6
	r.line("%s: p50 %.4g ms, p90 %.4g ms, p95 %.4g ms, p99 %.4g ms (n=%d); op_tail_ms is p%g", alias,
		lat.Median()/1e6, lat.Quantile(0.9)/1e6, lat.Quantile(0.95)/1e6, lat.Quantile(0.99)/1e6, lat.Len(), tail*100)
}

// setOverhead records the traced half's median op latency over the
// untraced half's, both in nanoseconds.
func (r *result) setOverhead(untracedP50, tracedP50 float64) {
	if untracedP50 > 0 {
		r.layers["bench.trace_overhead"] = tracedP50 / untracedP50
	}
	r.line("tracing overhead: op p50 %.4g ms untraced, %.4g ms traced (ratio %.4f)",
		untracedP50/1e6, tracedP50/1e6, r.layers["bench.trace_overhead"])
}

// setLateness records the open-loop generator's own lateness and marks
// the run invalid when the generator, not the server, fell behind.
func (r *result) setLateness(loops ...*openLoop) {
	var late Samples
	for _, l := range loops {
		late.Merge(&l.late)
	}
	p99 := late.Quantile(0.99) / 1e6
	if late.Len() == 0 {
		p99 = 0
	}
	r.layers["bench.late_ms"] = p99
	r.line("bench.late_ms: generator lateness %s", late.Describe(1e-6, "ms"))
	r.gate(p99 <= maxGeneratorLateMS, "generator fell behind its schedule: p99 lateness %.2f ms > %d ms; the run is invalid", p99, maxGeneratorLateMS)
}

// maxGeneratorLateMS bounds the generator's own p99 lateness; beyond it
// the open-loop timings no longer describe the server.
const maxGeneratorLateMS = 20

// setSpanLayer sets a per-layer metric to the median of samples given in
// nanoseconds, scaled to the metric's unit.
func (r *result) setSpanLayer(name string, s *Samples, scale float64, unit string) {
	if s.Len() == 0 {
		return
	}
	r.layers[name] = s.Median() * scale
	r.line("%s: %s", name, s.Describe(scale, unit))
}

// tracedRuntime records the Go runtime's cost over a traced phase that
// started when the stop-the-world pause total read pausesBefore: the pause
// time it added and the live heap at its end.
func (r *result) tracedRuntime(pausesBefore time.Duration) {
	r.layers["runtime.gc_pause_ms"] = float64(gcPauses()-pausesBefore) / 1e6
	r.layers["runtime.heap_mb"] = heapMiB()
	r.line("runtime: %.3f ms of GC pauses in the traced phase, %.2f MiB live heap after it",
		r.layers["runtime.gc_pause_ms"], r.layers["runtime.heap_mb"])
}

// setCount sets a per-layer counter delta.
func (r *result) setCount(name string, v uint64) {
	r.layers[name] = float64(v)
	r.line("%s = %d", name, v)
}

func main() { os.Exit(mainErr()) }

func mainErr() int {
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
		seed     = flag.Int64("seed", defaultSeed, fmt.Sprintf("seed every input is derived from; confirm a gain on the held-out seed %d too", heldOutSeed))
		seconds  = flag.Float64("seconds", runSeconds, "length of the measured phase")
		trace    = flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
		work     = flag.String("work", ".bench_build", "directory for stores and span files")
		describe = flag.Bool("describe", false, "print the BENCHMARK.json this benchmark implements and exit")
	)
	flag.Parse()
	if *describe {
		out, err := describeJSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		os.Stdout.Write(out)
		return 0
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	dir, err := os.MkdirTemp(mustMkdir(*work), "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, dir: dir, work: *work}
	// Flush what earlier builds and runs left to write back, so that the
	// kernel's writeback does not land inside this run's measurements.
	syscall.Sync()

	if *workload == "all" {
		return runAll(cfg)
	}
	def, ok := findWorkload(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s or all)\n", *workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	res, err := runOne(def, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", def.name, err)
		return 1
	}
	for _, l := range res.report {
		fmt.Printf("%s: %s\n", def.name, l)
	}
	for _, g := range res.gates {
		fmt.Printf("%s: GATE FAILED: %s\n", def.name, g)
	}
	line, err := resultJSON(res, cfg.trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if len(res.gates) > 0 {
		return 1
	}
	return 0
}

func mustMkdir(dir string) string {
	_ = os.MkdirAll(dir, 0o755) // MkdirTemp reports any failure
	return dir
}

// runOne runs a workload in its own subdirectory and applies the gates
// every workload shares.
func runOne(def workloadDef, cfg config) (*result, error) {
	cfg.dir = filepath.Join(cfg.dir, def.name)
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	res, err := def.run(cfg)
	if err != nil {
		return nil, err
	}
	res.gate(res.attempted > 0, "no ops attempted")
	res.gate(res.attempted == res.ok+res.failed+res.busy,
		"op accounting: %d attempted != %d ok + %d failed + %d busy", res.attempted, res.ok, res.failed, res.busy)
	res.line("ops: %d attempted, %d ok, %d failed, %d busy; failed_share = %.6f ratio", res.attempted, res.ok, res.failed, res.busy, res.failedShare())
	want := endToEnd
	if cfg.trace {
		want = perLayer
	}
	got := res.e2e
	if cfg.trace {
		got = res.layers
	}
	for _, m := range want {
		v, ok := got[m.Name]
		if !ok && cfg.trace {
			got[m.Name] = 0 // the workload makes no call into this layer
			continue
		}
		res.gate(ok && finite(v) && (cfg.trace || v > 0), "metric %s missing, non-finite or zero (%v)", m.Name, v)
	}
	return res, nil
}

// resultJSON renders the contract's last line.
func resultJSON(res *result, traced bool) ([]byte, error) {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, vals := endToEnd, res.e2e
	if traced {
		defs, vals = perLayer, res.layers
	}
	metrics := make(map[string]metric, len(defs))
	for _, m := range defs {
		v := vals[m.Name]
		if !finite(v) {
			v = 0
		}
		metrics[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	return json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(res.gates) == 0, res.attempted, res.failed + res.busy, metrics})
}

// runAll runs every workload untraced and then traced and prints one
// table, including each workload's tracing overhead.
func runAll(cfg config) int {
	status := 0
	for _, def := range workloads {
		for _, traced := range []bool{false, true} {
			c := cfg
			c.trace = traced
			res, err := runOne(def, c)
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", def.name, err)
				status = 1
				continue
			}
			mode := "untraced"
			if traced {
				mode = "traced"
			}
			for _, l := range res.report {
				fmt.Printf("%s [%s]: %s\n", def.name, mode, l)
			}
			for _, g := range res.gates {
				fmt.Printf("%s [%s]: GATE FAILED: %s\n", def.name, mode, g)
				status = 1
			}
		}
	}
	return status
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// describeJSON renders the BENCHMARK.json this program implements.
func describeJSON() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var wls []wl
	for _, w := range workloads {
		wls = append(wls, wl{w.name, w.why})
	}
	var layers []layer
	for _, m := range perLayer {
		layers = append(layers, layer{m.Name, m.Unit, m.Better})
	}
	doc := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wl        `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []layer     `json:"per_layer"`
	}{[]string{"bash", "perfbench/run.sh"}, []string{"perfbench"}, runSeconds, wls, endToEnd, layers}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
