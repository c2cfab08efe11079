// Command perfbench is the repository's end-to-end benchmark. One process
// drives the system's public entry points in-process — adhocga.Session,
// and service.New over a jobstore.File plus a league.Archive assembled the
// way cmd/adhocd assembles them — under one of three workloads, checks
// that every output is correct, and prints every metric BENCHMARK.json
// names, by name and unit.
//
// Run it from the repository root through its build script:
//
//	bash perfbench/run.sh --workload evolve-batch --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// runs the workload twice in one process, first untraced and then with
// spans recorded around every call into a layer, and prints the per-layer
// metrics, the layer ladder and the tracing overhead (the end-to-end
// difference between the two passes). The last line of standard output is
// always one JSON object: {"correct", "attempted", "failed", "metrics"}.
// Scratch data, spans and per-run records go to .bench_build/ under the
// working directory.
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// workloads maps each BENCHMARK.json workload to the function that runs it.
var workloads = map[string]func(*bench) error{
	"evolve-batch": runEvolve,
	"adhocd-jobs":  runJobs,
	"adhocd-reads": runReads,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fl.String("workload", "", "workload name from BENCHMARK.json")
	seed := fl.Uint64("seed", 1, "workload seed; every input is generated from it")
	seconds := fl.Int("seconds", 20, "how long the measured phase runs")
	trace := fl.Int("trace", 0, "0: end-to-end metrics untraced; 1: per-layer metrics from a traced pass")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (evolve-batch, adhocd-jobs, adhocd-reads), --seconds >= 1, --trace 0|1\n")
		return 2
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	work, err := filepath.Abs(filepath.Join(".bench_build", "run", fmt.Sprintf("%s-%d", *workload, os.Getpid())))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)
	b := &bench{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		traced:   *trace == 1,
		work:     work,
		out:      bufio.NewWriter(stdout),
		e2e:      map[string]float64{},
		layer:    map[string]float64{},
	}
	defer b.out.Flush()
	// The run's budget: both passes plus set-up and slack. Loops stop at
	// the context's deadline; the watchdog ends a run that still hangs, so
	// the process always exits well inside three minutes.
	budget := min(2*b.seconds+90*time.Second, 160*time.Second)
	var cancel context.CancelFunc
	b.ctx, cancel = context.WithTimeout(context.Background(), budget)
	defer cancel()
	watchdog := time.AfterFunc(budget+10*time.Second, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded its time budget")
		os.Exit(3)
	})
	defer watchdog.Stop()
	b.printf("perfbench workload=%s seed=%d seconds=%d trace=%d\n", b.workload, b.seed, *seconds, *trace)
	b.source = sourceDigest(".")
	b.printf("provenance: %s\n", provenance(b.seed, b.source, work))
	if err := drive(b); err != nil {
		b.fail("%v", err)
	}
	if b.tr != nil {
		b.tr.printStats(b.out)
		path := filepath.Join(filepath.Dir(filepath.Dir(work)), fmt.Sprintf("spans-%s-seed%d.jsonl", b.workload, b.seed))
		if err := b.tr.write(path); err != nil {
			b.fail("write spans: %v", err)
		} else {
			b.printf("spans written to %s\n", path)
		}
	}
	return b.finish(spec)
}

// bench is one run's shared state: flags, scratch directory, the report
// the workload fills in, and the operation tally behind fail_share.
type bench struct {
	workload string
	seed     uint64
	seconds  time.Duration
	traced   bool
	work     string
	ctx      context.Context // the run's deadline
	out      *bufio.Writer
	tr       *tracer // non-nil only during the traced pass
	source   string  // sourceDigest of the checkout

	mu        sync.Mutex
	attempted int64
	failed    int64
	problems  []string
	e2e       map[string]float64 // BENCHMARK.json end_to_end metrics
	layer     map[string]float64 // BENCHMARK.json per_layer metrics
}

func (b *bench) printf(format string, args ...any) {
	b.mu.Lock()
	fmt.Fprintf(b.out, format, args...)
	b.mu.Unlock()
}

// op counts one attempted operation and, when err is non-nil, its failure.
func (b *bench) op(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	if err != nil {
		b.failed++
		if len(b.problems) < 20 {
			b.problems = append(b.problems, err.Error())
		}
	}
}

// fail records a failed check that is not tied to one counted operation.
func (b *bench) fail(format string, args ...any) {
	b.op(fmt.Errorf(format, args...))
}

// named prints one metric under the name the workload's users know it by,
// with its unit and the base it was computed from.
func (b *bench) named(name string, value float64, unit, base string) {
	b.printf("  %-34s %14.4f %-7s %s\n", name, value, unit, base)
}

// setE2E records an end-to-end metric and prints it under its user name.
func (b *bench) setE2E(key, name string, value float64, unit, base string) {
	b.mu.Lock()
	b.e2e[key] = value
	b.mu.Unlock()
	b.named(name, value, unit, base)
}

// setLayer records a per-layer metric and prints it with its base.
func (b *bench) setLayer(key string, value float64, unit, base string) {
	b.mu.Lock()
	b.layer[key] = value
	b.mu.Unlock()
	b.named(key, value, unit, base)
}

// rung prints one ladder step as a share of the rung above it, with both
// bases, and records it as a per-layer metric.
func (b *bench) rung(key, label string, part, whole float64, unit, partBase, wholeBase string) {
	share := ratio(part, whole)
	b.mu.Lock()
	b.layer[key] = share
	b.mu.Unlock()
	b.printf("  ladder %-26s %8.4f  = %.4f %s (%s) / %.4f %s (%s)\n", label, share, part, unit, partBase, whole, unit, wholeBase)
}

// finish prints the failure summary and the JSON result line, and picks
// the exit code.
func (b *bench) finish(spec benchSpec) int {
	b.mu.Lock()
	attempted, failed, problems := b.attempted, b.failed, b.problems
	b.mu.Unlock()
	if attempted == 0 {
		attempted, failed = 1, 1
		problems = append(problems, "no operation was attempted")
	}
	b.printf("fail_share %.6f (%d failed of %d attempted operations)\n", float64(failed)/float64(attempted), failed, attempted)
	for _, p := range problems {
		b.printf("FAILED: %s\n", p)
	}
	list, values := spec.EndToEnd, b.e2e
	if b.traced {
		list, values = spec.PerLayer, b.layer
	}
	out := map[string]any{}
	missing := false
	var absent []string
	for _, m := range list {
		v, ok := values[m.Name]
		if !ok && !b.traced {
			b.printf("FAILED: end-to-end metric %s was not measured\n", m.Name)
			missing = true
			continue
		}
		if !ok {
			absent = append(absent, m.Name)
		}
		out[m.Name] = map[string]any{"value": v, "unit": m.Unit}
	}
	if len(absent) > 0 {
		b.printf("per-layer metrics this workload does not exercise (reported as 0): %s\n", strings.Join(absent, " "))
	}
	correct := failed == 0 && !missing
	line, err := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   out,
	})
	if err != nil {
		b.printf("FAILED: encode result: %v\n", err)
		return 1
	}
	b.printf("%s\n", line)
	if !correct {
		return 1
	}
	return 0
}

// benchSpec is the part of BENCHMARK.json the program needs: which
// metrics to print, in which units.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(path string) (benchSpec, error) {
	var s benchSpec
	raw, err := os.ReadFile(path)
	if err != nil {
		return s, fmt.Errorf("read %s: %w", path, err)
	}
	if err := json.Unmarshal(raw, &s); err != nil {
		return s, fmt.Errorf("parse %s: %w", path, err)
	}
	return s, nil
}

// provenance names what produced a result: source revision, CPU, core
// counts, toolchain, seed, and the filesystem the data directory is on.
func provenance(seed uint64, source, dataDir string) string {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return fmt.Sprintf("commit=%s source_sha256=%s cpu=%q nproc=%d gomaxprocs=%d go=%s seed=%d data_fs=%s",
		commit, source, cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), seed, fsType(dataDir))
}

// sourceDigest hashes every Go source and module file under root (outside
// build output and hidden directories), so a result can be tied to the
// code even in a checkout that is not a git repository.
func sourceDigest(root string) string {
	h := sha256.New()
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir by its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794c7630:
		return "overlayfs"
	default:
		return fmt.Sprintf("0x%x", uint64(st.Type))
	}
}

// sampler watches the process while a pass is measured: peak resident set
// size from /proc, peak live heap and GC CPU time from runtime/metrics.
type sampler struct {
	stop chan struct{}
	wg   sync.WaitGroup

	rssPeak, heapPeak float64 // bytes
	gcStart, cpuStart float64 // cpu-seconds at start
	gcShare           float64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/memory/classes/heap/objects:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readRuntime() (heap, gc, total float64) {
	s := append([]metrics.Sample(nil), runtimeSamples...)
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return val(0), val(1), val(2)
}

func rssBytes() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	var size, resident int64
	if _, err := fmt.Sscan(string(data), &size, &resident); err != nil {
		return 0
	}
	return float64(resident * int64(os.Getpagesize()))
}

func startSampler() *sampler {
	s := &sampler{stop: make(chan struct{})}
	_, s.gcStart, s.cpuStart = readRuntime()
	s.observe()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				s.observe()
			}
		}
	}()
	return s
}

func (s *sampler) observe() {
	heap, _, _ := readRuntime()
	s.rssPeak = max(s.rssPeak, rssBytes())
	s.heapPeak = max(s.heapPeak, heap)
}

// finish stops the sampler; GC share covers the sampled interval. The GC
// CPU counters are estimates the runtime refreshes at each GC cycle.
func (s *sampler) finish() {
	close(s.stop)
	s.wg.Wait()
	s.observe()
	runtime.GC()
	_, gc, total := readRuntime()
	s.gcShare = ratio(gc-s.gcStart, total-s.cpuStart)
}

// recordRuntime reports the sampler's readings: rss_peak_mb end to end,
// the heap and GC figures per layer.
func (b *bench) recordRuntime(s *sampler, e2e bool) {
	const mib = 1 << 20
	if e2e {
		b.setE2E("rss_peak_mb", "rss_peak_mb", s.rssPeak/mib, "MiB", "peak resident set of the benchmark process while measuring")
		return
	}
	b.setLayer("runtime.heap_peak_mb", s.heapPeak/mib, "MiB", "peak live heap objects, runtime/metrics, traced pass")
	b.setLayer("runtime.gc_cpu_share", s.gcShare, "share", "GC CPU ÷ total CPU, runtime/metrics, traced pass")
}

// passLength is how long each measured pass runs: the whole --seconds
// untraced, half of it for each of the two passes of a traced run.
func (b *bench) passLength() time.Duration {
	if b.traced {
		return b.seconds / 2
	}
	return b.seconds
}

// latency records the workload's primary operation latency: the median
// and the highest percentile with ten samples beyond it.
func (b *bench) latency(what string, xs []float64, nameP50, nameTail string) error {
	v, pct, ok := tailOf(xs)
	if !ok {
		return fmt.Errorf("%s: %d samples, a tail needs at least 11", what, len(xs))
	}
	b.setE2E("latency_ms.p50", nameP50, median(xs), "ms", fmt.Sprintf("median %s, %d samples", what, len(xs)))
	b.setE2E("latency_ms.tail", nameTail, v, "ms", fmt.Sprintf("p%.2f %s: the 11th largest of %d samples", pct, what, len(xs)))
	return nil
}

// windowedLatency is latency with the tail taken per time window: the
// pass is cut into equal windows, each window's highest percentile with
// ten samples beyond it is found, and the median over windows is reported.
// at holds each sample's completion time in seconds since the pass began.
func (b *bench) windowedLatency(what string, xs, at []float64, wall float64, windows int, nameP50, nameTail string) error {
	per := make([][]float64, windows)
	for i, x := range xs {
		w := min(int(at[i]/wall*float64(windows)), windows-1)
		per[w] = append(per[w], x)
	}
	var tails, pcts []float64
	minN := len(xs)
	for _, ws := range per {
		v, pct, ok := tailOf(ws)
		if !ok {
			return fmt.Errorf("%s: a window holds %d samples, a tail needs at least 11", what, len(ws))
		}
		tails = append(tails, v)
		pcts = append(pcts, pct)
		minN = min(minN, len(ws))
	}
	b.setE2E("latency_ms.p50", nameP50, median(xs), "ms", fmt.Sprintf("median %s, %d samples", what, len(xs)))
	b.setE2E("latency_ms.tail", nameTail, median(tails), "ms", fmt.Sprintf("median over %d windows of each window's p%.2f (11th largest; windows hold ≥%d samples) %s",
		windows, median(pcts), minN, what))
	return nil
}

// traceOverhead reports how much the traced pass lost on the workload's
// throughput against the untraced pass of the same run.
func (b *bench) traceOverhead(name string, untraced, traced float64, higherBetter bool) {
	share := ratio(traced-untraced, untraced)
	if higherBetter {
		share = -share
	}
	b.setLayer("trace.overhead_share", share, "share", fmt.Sprintf("%s untraced %.4f vs traced %.4f (positive = tracing slower)", name, untraced, traced))
}

// checkDigest compares a result digest with the one recorded under key by
// an earlier pass or run of the same source in this checkout, and records
// it when new. Keys carry the source digest, so a change to the code or
// the benchmark starts a fresh record instead of failing against the old.
func (b *bench) checkDigest(key, digest string) error {
	key = "source=" + b.source + "/" + key
	path := filepath.Join(".bench_build", "digests.json")
	known := map[string]string{}
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &known); err != nil {
			return fmt.Errorf("read %s: %w", path, err)
		}
	}
	if prev, ok := known[key]; ok {
		if prev != digest {
			return fmt.Errorf("result digest %s differs from %s recorded by an earlier run of %s", digest, prev, key)
		}
		return nil
	}
	known[key] = digest
	raw, err := json.MarshalIndent(known, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// recordHTTP reports the handler and transport split of a traced pass:
// per-route handler medians, client-minus-handler time, and the
// handler ÷ client rung.
func (b *bench) recordHTTP(st *stack, clients []*client) {
	st.handler.mu.Lock()
	routes := make([]string, 0, len(st.handler.byRoute))
	for r := range st.handler.byRoute {
		routes = append(routes, r)
	}
	sort.Strings(routes)
	for _, r := range routes {
		key, ok := routeKeys[r]
		if !ok {
			continue
		}
		xs := st.handler.byRoute[r]
		b.setLayer("service.handler_ms."+key+".p50", median(xs), "ms", fmt.Sprintf("%s, %d requests", r, len(xs)))
	}
	st.handler.mu.Unlock()
	var transport, clientMS, handlerMS []float64
	for _, c := range clients {
		c.mu.Lock()
		transport = append(transport, c.transportMS...)
		clientMS = append(clientMS, c.clientMS...)
		handlerMS = append(handlerMS, c.handlerMS...)
		c.mu.Unlock()
	}
	b.setLayer("service.transport_ms.p50", median(transport), "ms", fmt.Sprintf("client time − handler time, %d requests", len(transport)))
	b.rung("ladder.handler_per_client", "handler/client", sum(handlerMS), sum(clientMS), "ms", "Σ handler", fmt.Sprintf("Σ client time, %d requests", len(clientMS)))
}
