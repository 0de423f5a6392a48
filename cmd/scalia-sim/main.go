// Command scalia-sim regenerates the paper's tables and figures from
// the simulator. Each -experiment value corresponds to one artifact of
// the evaluation section (see EXPERIMENTS.md for the index).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"scalia/internal/cloud"
	"scalia/internal/core"
	"scalia/internal/sim"
	"scalia/internal/workload"
)

func main() {
	experiment := flag.String("experiment", "all",
		"one of: rules, providers, lifetime, trend-hourly, trend-daily, "+
			"slashdot, gallery, sets, addprovider, repair, custom, all")
	every := flag.Int("every", 6, "print one resource/price row every N periods")
	workloadName := flag.String("workload", "zipf-flashcrowd",
		"registered workload the custom experiment runs (see -list), or @FILE to replay a trace")
	exportTrace := flag.String("export-trace", "",
		"write the -workload scenario as a line-delimited JSON trace to FILE and exit")
	list := flag.Bool("list", false, "list experiments and registered workloads, then exit")
	flag.Parse()

	var customScenario workload.Scenario // resolved below, before any runner fires
	runners := map[string]func(int) error{
		"rules":        runRules,
		"providers":    runProviders,
		"lifetime":     runLifetime,
		"trend-hourly": runTrendHourly,
		"trend-daily":  runTrendDaily,
		"slashdot":     runSlashdot,
		"gallery":      runGallery,
		"sets":         runSets,
		"addprovider":  runAddProvider,
		"repair":       runRepair,
		"custom":       func(every int) error { return runCustom(customScenario, every) },
	}
	order := []string{"rules", "providers", "lifetime", "trend-hourly", "trend-daily",
		"sets", "slashdot", "gallery", "addprovider", "repair", "custom"}

	if *list {
		fmt.Println("experiments:")
		for _, name := range order {
			fmt.Printf("  %s\n", name)
		}
		fmt.Println("\nworkloads (-experiment custom -workload NAME):")
		for _, name := range workload.Names() {
			e, _ := workload.Describe(name)
			fmt.Printf("  %-16s %s\n", name, e.Desc)
		}
		return
	}

	// The custom runner and -export-trace share one upfront resolution:
	// a bad -workload must fail before, not after, ten finished paper
	// experiments, and an @FILE trace is read exactly once.
	if *exportTrace != "" || *experiment == "all" || *experiment == "custom" {
		sc, err := resolveWorkload(*workloadName)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(2)
		}
		customScenario = sc
	}

	if *exportTrace != "" {
		if err := writeTrace(customScenario, *exportTrace); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		return
	}

	if *experiment == "all" {
		for _, name := range order {
			fmt.Printf("==== %s ====\n", name)
			if err := runners[name](*every); err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				os.Exit(1)
			}
			fmt.Println()
		}
		return
	}
	run, ok := runners[*experiment]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *experiment)
		os.Exit(2)
	}
	if err := run(*every); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}

func runRules(int) error {
	fmt.Println("Fig. 2 — example storage rules:")
	fmt.Printf("%-8s %12s %10s %-8s %8s %4s\n", "name", "durability", "avail.", "zones", "lock-in", "N")
	for _, r := range core.PaperRules() {
		fmt.Printf("%-8s %12.7f %10.5f %-8v %8.2f %4d\n",
			r.Name, r.Durability, r.Availability, r.Zones, r.LockIn, r.MinProviders())
	}
	return nil
}

func runProviders(int) error {
	fmt.Println("Fig. 3 — provider profiles (USD/GB, USD/1000 ops):")
	fmt.Printf("%-10s %14s %8s %16s %8s %8s %8s %6s\n",
		"name", "durability", "avail.", "zones", "storage", "bdw-in", "bdw-out", "ops")
	for _, s := range cloud.PaperProviders() {
		fmt.Printf("%-10s %14.11f %8.3f %16v %8.3f %8.2f %8.2f %6.2f\n",
			s.Name, s.Durability, s.Availability, s.Zones,
			s.Pricing.StorageGBMonth, s.Pricing.BandwidthInGB,
			s.Pricing.BandwidthOutGB, s.Pricing.OpsPer1000)
	}
	return nil
}

func runLifetime(int) error {
	fmt.Println("Fig. 5 — class lifetime distribution and time left to live:")
	_, out := sim.LifetimeFigure()
	fmt.Print(out)
	return nil
}

func runTrendHourly(int) error {
	fmt.Println("Fig. 8 — trend detection (ma 3, limit 0.1, s 1 h, 7 days):")
	fmt.Print(sim.FormatTrend(sim.TrendHourly()))
	return nil
}

func runTrendDaily(int) error {
	fmt.Println("Fig. 9 — trend detection (ma 3, limit 0.1, s 1 d, 3 months):")
	fmt.Print(sim.FormatTrend(sim.TrendDaily()))
	return nil
}

func runSets(int) error {
	fmt.Println("Fig. 13 — provider sets:")
	for _, s := range sim.StaticSets() {
		fmt.Printf("%2d  %s\n", s.Index, s.Label())
	}
	fmt.Printf("%2d  Scalia\n", sim.ScaliaIndex)
	return nil
}

func runSlashdot(every int) error {
	res, err := sim.SlashdotExperiment()
	if err != nil {
		return err
	}
	fmt.Println("Fig. 12 — Slashdot scenario, total resources:")
	fmt.Print(sim.FormatResources(res, every))
	fmt.Println("\nScalia placement changes:")
	fmt.Print(sim.FormatChanges(res))
	fmt.Println("\nFig. 14 — Slashdot scenario, over-cost per provider set:")
	fmt.Print(sim.FormatOverCost(res))
	return nil
}

func runGallery(every int) error {
	res, err := sim.GalleryExperiment()
	if err != nil {
		return err
	}
	fmt.Println("Fig. 15 — gallery scenario, total resources:")
	fmt.Print(sim.FormatResources(res, every))
	fmt.Println("\nFig. 16 — gallery scenario, over-cost per provider set:")
	fmt.Print(sim.FormatOverCost(res))
	return nil
}

func runAddProvider(every int) error {
	res, err := sim.AddProviderExperiment()
	if err != nil {
		return err
	}
	fmt.Println("Fig. 17 — provider addition (CheapStor at hour 400), resources:")
	fmt.Print(sim.FormatResources(res, every*4))
	fmt.Println("\nScalia placement changes (first 10):")
	for i, ch := range res.Changes {
		if i >= 10 {
			fmt.Printf("... and %d more\n", len(res.Changes)-10)
			break
		}
		fmt.Printf("hour %4d  %-18s %s -> %s (%s)\n", ch.Period, ch.Object, ch.From, ch.To, ch.Reason)
	}
	fmt.Println("\nOver-cost per provider set:")
	fmt.Print(sim.FormatOverCost(res))
	return nil
}

// resolveWorkload builds a scenario from a registry name, or replays a
// trace file when the name is "@FILE".
func resolveWorkload(name string) (workload.Scenario, error) {
	if !strings.HasPrefix(name, "@") {
		return workload.New(name)
	}
	f, err := os.Open(strings.TrimPrefix(name, "@"))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return workload.Import(f)
}

func writeTrace(sc workload.Scenario, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := workload.Export(f, sc); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %d-period trace of %q to %s\n", sc.Periods(), sc.Name(), path)
	return nil
}

func runCustom(sc workload.Scenario, every int) error {
	res, err := sim.CustomRun(sc)
	if err != nil {
		return err
	}
	fmt.Printf("custom workload %q (%d periods) — total resources:\n", res.Scenario, res.Periods)
	fmt.Print(sim.FormatResources(res, every))
	fmt.Println("\nScalia placement changes:")
	fmt.Print(sim.FormatChanges(res))
	fmt.Println("\nOver-cost per provider set:")
	fmt.Print(sim.FormatOverCost(res))
	return nil
}

func runRepair(every int) error {
	res, static, err := sim.RepairExperiment()
	if err != nil {
		return err
	}
	fmt.Println("Fig. 18 — active repair: cumulative price, Scalia vs fixed set:")
	fmt.Print(sim.FormatCumulative(res.CumulativeScalia, static, sim.RepairStaticSet.Label(), every))
	fmt.Println("\nScalia placement changes:")
	fmt.Print(sim.FormatChanges(res))
	return nil
}
