// Command bench is the repository's benchmark: four closed-loop
// workloads driven through the v1 gateway over loopback HTTP, nine
// end-to-end metrics from an untraced run and the per-layer numbers
// from a traced one. README.md in this directory has the workload,
// metric and interaction tables; BENCHMARK.json at the repo root is the
// contract the driver reads.
//
// One workload, as the driver calls it (the last stdout line is the
// result object):
//
//	bash bench/run.sh --workload rtt-striped --seed 1 --seconds 15 --trace 0
//
// Every workload, or several sets with their run-to-run spread:
//
//	bash bench/run.sh
//	bash bench/run.sh -sets 10 -agree
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// wireMetric is one metric of the result line.
type wireMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// wireResult is the last line a single-workload run prints.
type wireResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]wireMetric `json:"metrics"`
}

const (
	defaultSeconds = 15
	quickSeconds   = 2
	warmupSeconds  = 2
	// setupRepeats is how many times an untraced run builds and preloads
	// the deployment; setup_s is the median.
	setupRepeats = 3
)

func main() {
	workloadName := flag.String("workload", "", "workload to run (default: all four, each in a child process)")
	seed := flag.Int64("seed", 1, "seed of the op sequence and payloads")
	seconds := flag.Float64("seconds", defaultSeconds, "length of the measurement window")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics, layer probes, span file")
	quick := flag.Bool("quick", false, "2 s windows and one set-up, for smoke tests")
	sets := flag.Int("sets", 1, "all-workload mode: run this many sets, set i with seed+i")
	agree := flag.Bool("agree", false, "with -sets: exit non-zero if an end-to-end metric spreads beyond its bound")
	outDir := flag.String("out", filepath.Join("bench", "out"), "directory for span files and run reports")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	if *quick {
		*seconds = quickSeconds
	}

	if *workloadName == "" {
		os.Exit(runAll(*seed, *seconds, *trace, *quick, *sets, *agree, *outDir))
	}
	w := workloadByName(*workloadName)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", *workloadName, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	o := runOpts{
		seed:   *seed,
		window: time.Duration(*seconds * float64(time.Second)),
		warmup: warmupSeconds * time.Second,
		traced: *trace != 0,
		setups: setupRepeats,
		outDir: *outDir,
	}
	if *quick {
		o.warmup = time.Second / 2
	}
	if o.traced || *quick {
		o.setups = 1 // setup_s is an end-to-end metric; a traced run does not report it
	}
	res, err := runWorkload(w, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	printResult(res)
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// printResult prints one "name value unit" line per metric, the notes
// on stderr, and the result object as the last stdout line.
func printResult(res runResult) {
	out := wireResult{
		Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed,
		Metrics: map[string]wireMetric{},
	}
	for _, name := range sortedKeys(res.Metrics) {
		v := res.Metrics[name]
		out.Metrics[name] = wireMetric{Value: v, Unit: unitOf(name)}
		fmt.Printf("%s %s %s %s\n", res.Workload, name, strconv.FormatFloat(v, 'g', -1, 64), unitOf(name))
	}
	for _, n := range res.Notes {
		fmt.Fprintf(os.Stderr, "bench: %s: %s\n", res.Workload, n)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n", line)
}

// setReport is one (workload, seed) run of an all-workload invocation.
type setReport struct {
	Workload string     `json:"workload"`
	Seed     int64      `json:"seed"`
	Result   wireResult `json:"result"`
}

// runAll runs every workload in a child process of its own — the same
// conditions the driver measures under: a fresh heap, one deployment —
// for each set, prints the values and their spread, and writes the
// report. It returns the exit code.
func runAll(seed int64, seconds float64, trace int, quick bool, sets int, agree bool, outDir string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	var reports []setReport
	code := 0
	for s := 0; s < sets; s++ {
		for _, w := range workloads {
			args := []string{
				"-workload", w.name, "-seed", strconv.FormatInt(seed+int64(s), 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace),
				"-out", outDir,
			}
			if quick {
				args = append(args, "-quick")
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v\n", w.name, seed+int64(s), err)
				code = 1
			}
			lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
			var res wireResult
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d printed no result: %v\n", w.name, seed+int64(s), err)
				code = 1
				continue
			}
			reports = append(reports, setReport{w.name, seed + int64(s), res})
			if sets == 1 {
				fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
			}
		}
	}
	if sets > 1 && !printSpread(reports, agree) {
		code = 1
	}
	if err := os.MkdirAll(outDir, 0o755); err == nil {
		path := filepath.Join(outDir, "run-"+time.Now().UTC().Format("20060102T150405Z")+".json")
		buf, _ := json.MarshalIndent(reports, "", " ")
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err == nil {
			fmt.Fprintln(os.Stderr, "bench: wrote", path)
		}
	}
	return code
}

// printSpread prints, per workload and metric, the median over the
// sets and the quartile spread beside the metric's bound — the same
// rule the driver accepts the benchmark by. It reports whether every
// bounded metric (setup_s aside, which the driver exempts) stayed
// within its bound.
func printSpread(reports []setReport, agree bool) bool {
	ok := true
	fmt.Printf("%-12s %-28s %12s %9s %7s  %s\n", "workload", "metric", "median", "spread", "bound", "values")
	for _, w := range workloads {
		byMetric := map[string][]float64{}
		for _, rep := range reports {
			if rep.Workload != w.name {
				continue
			}
			for name, mv := range rep.Result.Metrics {
				byMetric[name] = append(byMetric[name], mv.Value)
			}
		}
		for _, name := range sortedKeys(byMetric) {
			vals := byMetric[name]
			spread := quartileSpread(vals)
			bound, verdict := "", ""
			for _, def := range endToEndDefs {
				if def.name != name {
					continue
				}
				bound = fmt.Sprintf("%.1f%%", def.bound*100)
				switch {
				case name == "setup_s":
				case spread > def.bound:
					verdict = "  BEYOND BOUND"
					ok = false
				case spread > def.bound/3:
					verdict = "  above a third of the bound"
				}
			}
			strs := make([]string, len(vals))
			for i, v := range vals {
				strs[i] = strconv.FormatFloat(v, 'g', 5, 64)
			}
			fmt.Printf("%-12s %-28s %12.5g %8.2f%% %7s  %s%s\n",
				w.name, name, median(vals), spread*100, bound, strings.Join(strs, " "), verdict)
		}
	}
	return ok || !agree
}
