// Command perfbench is the repository benchmark: three workloads that
// stand for GNNavigator's three kinds of users (training a GNN, serving
// a trained model, asking the navigator for a guideline), measured end
// to end, and in a separate traced run layer by layer. See README.md.
//
// Usage (from the checkout root, through run.sh, which builds it):
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Every repetition runs in a fresh child process, so process-wide memos
// (datasets, calibration records, compiled plans) never turn a
// measurement into a lookup. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// repResult is what one child process — one cold repetition — reports.
type repResult struct {
	Seed   int64   `json:"seed"`
	SetupS float64 `json:"setup_s"`
	// WallS is the measured operation's wall time; the traced and
	// untraced runs' ratio of it is trace.overhead.
	WallS float64 `json:"wall_s"`
	// Metrics are the contract metrics: end-to-end when untraced,
	// per-layer when traced.
	Metrics map[string]float64 `json:"metrics"`
	// Report holds the workload's own named end-to-end figures.
	Report map[string]float64 `json:"report,omitempty"`
	// Digest renders the outputs that must repeat exactly.
	Digest    string   `json:"digest"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Problems  []string `json:"problems,omitempty"`
	Notes     []string `json:"notes,omitempty"`
}

type metric struct{ name, unit string }

// endToEnd are the metrics an untraced run reports on every workload;
// README.md gives each one's meaning per workload.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"throughput_per_s", "1/s"},
	{"latency_ms", "ms"},
	{"val_acc", "fraction"},
}

// perLayer are the metrics a traced run reports on every workload; a
// layer the workload does not call reads 0.
var perLayer = []metric{
	{"model.forward_ms", "ms"},
	{"model.backward_ms", "ms"},
	{"model.forward_gflops", "GFLOP/s"},
	{"nn.loss_ms", "ms"},
	{"nn.adam_ms", "ms"},
	{"infer.eval_ms", "ms"},
	{"pipeline.wait_ms", "ms"},
	{"sample.ms", "ms"},
	{"cache.gather_ms", "ms"},
	{"cache.hit_ratio", "fraction"},
	{"cache.transfer_mb", "MB"},
	{"infer.flushes", "count"},
	{"infer.vertices_per_flush", "count"},
	{"infer.predict_ms", "ms"},
	{"estimator.collect_s", "s"},
	{"estimator.probes", "count"},
	{"plan.compiles", "count"},
	{"plan.hits", "count"},
	{"estimator.train_s", "s"},
	{"dse.explore_s", "s"},
	{"dse.leaves", "count"},
	{"dse.pruned", "count"},
	{"dist.halo_mb", "MB"},
	{"dist.allreduce_mb", "MB"},
	{"dataset.load_s", "s"},
	{"model.load_s", "s"},
	{"trace.overhead", "ratio"},
}

type workload struct {
	run func(seed int64, traced bool, tmpDir string) (*repResult, error)
	// report lists the workload's own named figures (repResult.Report).
	report []metric
	// opName names what Attempted counts.
	opName string
	// seeds is how many workload seeds one untraced run covers. The
	// navigator's seed draws its calibration probe set, whose cost
	// differs from seed to seed, so a navigate run averages several
	// seeds derived from --seed; the others repeat --seed alone.
	seeds int
	// minReps is the fewest untraced repetitions a run makes, however
	// short --seconds is. A multi-seed workload needs one per seed plus
	// a repeat of the first.
	minReps int
}

var workloads = map[string]workload{
	"train-arxiv-sage": {
		run:     func(seed int64, traced bool, _ string) (*repResult, error) { return runTrain(seed, traced) },
		report:  []metric{{"train_samples_per_s", "1/s"}, {"val_acc", "fraction"}},
		opName:  "training runs",
		seeds:   1,
		minReps: 6,
	},
	"serve-zipf": {
		run: runServe,
		report: []metric{
			{"p50_ms.light", "ms"}, {"p99_ms.light", "ms"},
			{"p50_ms.heavy", "ms"}, {"p99_ms.heavy", "ms"},
			{"goodput_rps.heavy", "1/s"}, {"max_rps", "1/s"}, {"capacity_rps", "1/s"},
			{"predict_vertices_per_s", "1/s"},
			{"val_acc", "fraction"},
			{"late_p99_ms.heavy", "ms"}, {"late_max_ms.heavy", "ms"},
		},
		opName:  "requests",
		seeds:   1,
		minReps: 4,
	},
	"navigate-reddit2-a100x4": {
		run:     func(seed int64, traced bool, _ string) (*repResult, error) { return runNavigate(seed, traced) },
		report:  []metric{{"navigate_s", "s"}, {"chosen_acc", "fraction"}},
		opName:  "navigator runs",
		seeds:   3,
		minReps: 4,
	},
}

// subSeed is the j-th workload seed a run with --seed derives; the
// first is --seed itself.
func subSeed(seed int64, j int) int64 { return seed + int64(j)*1_000_003 }

// Repetition budget: an untraced run makes at least the workload's
// minReps repetitions, a traced run at least one untraced+traced pair;
// both keep going until --seconds is spent, and no child is started
// that could not finish before hardLimit.
const (
	maxReps   = 25
	hardLimit = 165 * time.Second
)

// clearedEnv are the library's environment overrides; children run
// without them so every repetition sees library defaults.
var clearedEnv = []string{"GNNAV_PROCS", "GNNAV_PREFETCH", "GNNAV_PRECISION", "GNNAV_PLAN"}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "measurement time per run")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	child := flag.Bool("child", false, "run one repetition and print its result (internal)")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || (*trace != 0 && *trace != 1) || *seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seed, --seconds >= 1, --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *child {
		os.Exit(runChild(w, *seed, *trace == 1))
	}
	if err := runParent(*name, w, *seed, time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// runChild runs one repetition and writes its repResult to stdout.
func runChild(w workload, seed int64, traced bool) int {
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	tmp := filepath.Join(wd, ".bench_build", "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res, err := w.run(seed, traced, tmp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res.Seed = seed
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// rep is one finished child.
type rep struct {
	res    *repResult
	rssMB  float64
	traced bool
}

// spawn runs one repetition in a fresh process with the library's env
// overrides cleared and GOMAXPROCS pinned to the CPUs available.
func spawn(ctx context.Context, name string, seed int64, traced bool) (*rep, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tr := "0"
	if traced {
		tr = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "--child", "--workload", name,
		"--seed", fmt.Sprint(seed), "--trace", tr)
	cmd.Env = childEnv()
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("repetition failed: %w", err)
	}
	var res repResult
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("repetition output: %w", err)
	}
	r := &rep{res: &res, traced: traced}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.rssMB = float64(ru.Maxrss) * 1024 / 1e6 // Maxrss is in KiB on Linux
	}
	return r, nil
}

func childEnv() []string {
	var env []string
	for _, kv := range os.Environ() {
		k, _, _ := strings.Cut(kv, "=")
		if k == "GOMAXPROCS" || strings.HasPrefix(k, "GNNAV_") {
			continue
		}
		env = append(env, kv)
	}
	return append(env, fmt.Sprintf("GOMAXPROCS=%d", runtime.NumCPU()))
}

// hostLine records the host and build the numbers came from.
func hostLine() string {
	commit, modified := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				commit = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				modified = "+modified"
			}
		}
	}
	var cleared []string
	for _, k := range clearedEnv {
		v, set := os.LookupEnv(k)
		if !set {
			v = "(unset)"
		}
		cleared = append(cleared, k+"="+v)
	}
	return fmt.Sprintf("host: nproc=%d GOMAXPROCS=%d go=%s %s/%s commit=%s; cleared for repetitions: %s",
		runtime.NumCPU(), runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH,
		commit+modified, strings.Join(cleared, " "))
}

func runParent(name string, w workload, seed int64, seconds time.Duration, traced bool) error {
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), hardLimit)
	defer cancel()
	fmt.Println(hostLine())

	// Repetition i of an untraced run uses seed seedOf(i): the one
	// workload seed, or the run's seeds in turn with the first repeated
	// right after the last, so every run checks one seed's outputs
	// across processes.
	seedOf := func(i int) int64 { return subSeed(seed, i%w.seeds) }
	minimum := w.minReps
	if traced {
		seedOf = func(int) int64 { return seed }
		minimum = 1
	}
	var reps []*rep
	var failures []string
	var longest time.Duration
	for i := 0; i < maxReps; i++ {
		elapsed := time.Since(start)
		perStep := longest
		if traced {
			perStep *= 2
		}
		if i >= minimum && elapsed >= seconds || elapsed+perStep > hardLimit {
			break
		}
		kinds := []bool{false}
		if traced {
			kinds = append(kinds, true)
		}
		for _, tr := range kinds {
			t0 := time.Now()
			r, err := spawn(ctx, name, seedOf(i), tr)
			longest = max(longest, time.Since(t0))
			if err != nil {
				failures = append(failures, err.Error())
				continue
			}
			reps = append(reps, r)
		}
	}
	for _, f := range failures {
		fmt.Println("failed:", f)
	}
	untraced, tracedReps := split(reps)
	if len(untraced) == 0 || (traced && len(tracedReps) == 0) {
		return fmt.Errorf("no repetition of %s finished (%d failed)", name, len(failures))
	}
	fmt.Printf("workload %s seed %d: %d untraced and %d traced cold repetitions in %.1f s\n",
		name, seed, len(untraced), len(tracedReps), time.Since(start).Seconds())

	out := result{Correct: len(failures) == 0, Metrics: map[string]value{}}
	for _, r := range reps {
		out.Attempted += r.res.Attempted
		out.Failed += r.res.Failed
		for _, p := range r.res.Problems {
			fmt.Println("check failed:", p)
			out.Correct = false
		}
	}
	// A repetition that died counts as one failed operation.
	out.Attempted = max(out.Attempted+len(failures), 1)
	out.Failed += len(failures)
	fmt.Printf("operations: %d %s attempted, %d succeeded, %d failed; %d repetitions failed\n",
		out.Attempted, w.opName, out.Attempted-out.Failed, out.Failed, len(failures))
	if out.Failed > 0 {
		out.Correct = false
	}
	groups := bySeed(untraced)
	for _, g := range groups {
		for _, r := range g.reps[1:] {
			if r.res.Digest != g.reps[0].res.Digest {
				fmt.Printf("check failed: seed %d outputs differ across repetitions: %q vs %q\n",
					g.seed, g.reps[0].res.Digest, r.res.Digest)
				out.Correct = false
			}
		}
	}
	for _, g := range append(groups, bySeed(tracedReps)...) {
		kind := "untraced"
		if g.reps[0].traced {
			kind = "traced"
		}
		for _, n := range g.reps[0].res.Notes {
			fmt.Printf("  seed %d, first %s repetition: %s\n", g.seed, kind, n)
		}
	}

	if !traced {
		fmt.Printf("end to end (median over a seed's repetitions, mean over %d seed(s); spread = IQR/median over repetitions, or over seeds)\n", len(groups))
		fmt.Println(" by the workload's own names:")
		for _, m := range w.report {
			printMetric(m, groups, func(r *rep) float64 { return r.res.Report[m.name] })
		}
		fmt.Println(" contract metrics (the JSON line below):")
		for _, m := range endToEnd {
			f := func(r *rep) float64 { return r.res.Metrics[m.name] }
			switch m.name {
			case "setup_s":
				f = func(r *rep) float64 { return r.res.SetupS }
			case "peak_rss_mb":
				f = func(r *rep) float64 { return r.rssMB }
			}
			out.Metrics[m.name] = value{printMetric(m, groups, f), m.unit}
		}
	} else {
		ref := untraced[0].res.Digest
		valid := true
		for _, r := range tracedReps {
			if r.res.Digest != ref {
				valid = false
				fmt.Printf("check failed: traced outputs diverge from untraced:\n  untraced %s\n  traced   %s\n", ref, r.res.Digest)
				break
			}
		}
		if valid {
			fmt.Println("per-layer: valid (traced outputs match the untraced run bitwise)")
		} else {
			fmt.Println("per-layer: INVALID; the end-to-end numbers of untraced runs still stand")
			out.Correct = false
		}
		var tw, uw []float64
		for _, r := range tracedReps {
			tw = append(tw, r.res.WallS)
		}
		for _, r := range untraced {
			uw = append(uw, r.res.WallS)
		}
		overhead := median(tw) / median(uw)
		traceGroup := []seedGroup{{seed: seed, reps: tracedReps}}
		fmt.Println("per layer (median over traced repetitions; 0 = layer not called by this workload):")
		for _, m := range perLayer {
			f := func(r *rep) float64 { return r.res.Metrics[m.name] }
			if m.name == "trace.overhead" {
				f = func(*rep) float64 { return overhead }
			}
			out.Metrics[m.name] = value{printMetric(m, traceGroup, f), m.unit}
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// seedGroup is the repetitions that ran one workload seed.
type seedGroup struct {
	seed int64
	reps []*rep
}

func bySeed(reps []*rep) []seedGroup {
	var groups []seedGroup
	at := map[int64]int{}
	for _, r := range reps {
		i, ok := at[r.res.Seed]
		if !ok {
			i = len(groups)
			at[r.res.Seed] = i
			groups = append(groups, seedGroup{seed: r.res.Seed})
		}
		groups[i].reps = append(groups[i].reps, r)
	}
	return groups
}

// printMetric prints one metric and returns its value: the median over
// each seed's repetitions, averaged over the seeds.
func printMetric(m metric, groups []seedGroup, f func(*rep) float64) float64 {
	var all, meds []float64
	var sum float64
	for _, g := range groups {
		var xs []float64
		for _, r := range g.reps {
			xs = append(xs, f(r))
		}
		all = append(all, xs...)
		meds = append(meds, median(xs))
		sum += median(xs)
	}
	v := sum / float64(len(groups))
	spreadOf := all
	if len(groups) > 1 {
		spreadOf = meds
	}
	fmt.Printf("  %-26s %14.6g %-9s spread %6.2f%%  n=%d\n", m.name, v, m.unit, 100*spread(spreadOf), len(all))
	return v
}

func split(reps []*rep) (untraced, traced []*rep) {
	for _, r := range reps {
		if r.traced {
			traced = append(traced, r)
		} else {
			untraced = append(untraced, r)
		}
	}
	return untraced, traced
}
