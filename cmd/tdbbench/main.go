// Command tdbbench regenerates the paper's evaluation artifacts (§6–7):
//
//	tdbbench -exp fig9          print the TPC-B collection sizes table
//	tdbbench -exp fig10         response time: BerkeleyDB vs TDB vs TDB-S
//	tdbbench -exp fig11         TDB response time & db size vs utilization
//	tdbbench -exp crypto        ablation: null vs 3DES/SHA-1 vs AES-GCM suites
//	tdbbench -exp all           everything above
//
// The storage substrate is a simulated disk with the paper's mechanical
// parameters (8.9/10.9 ms seek, 7200 rpm, §7.2): reported response times
// combine host CPU time with simulated disk time, so absolute numbers
// depend on the host but the *shape* — who wins and by how much, where the
// utilization knee falls — reproduces the paper's.
package main

import (
	"flag"
	"fmt"
	"os"

	"tdb/internal/tpcb"
)

func main() {
	var (
		exp   = flag.String("exp", "all", "experiment: fig9, fig10, fig11, crypto, all")
		txns  = flag.Int("txns", 20000, "total transactions per run (half measured)")
		scale = flag.String("scale", "small", "database scale: small (10k accounts) or paper (100k accounts)")
		seed  = flag.Int64("seed", 1, "workload seed")
	)
	flag.Parse()

	sc := tpcb.SmallScale
	if *scale == "paper" {
		sc = tpcb.PaperScale
	}
	cfg := tpcb.BenchConfig{Scale: sc, Txns: *txns, Seed: *seed}

	var err error
	switch *exp {
	case "fig9":
		err = runFig9(cfg)
	case "fig10":
		err = runFig10(cfg)
	case "fig11":
		err = runFig11(cfg)
	case "crypto":
		err = runCrypto(cfg)
	case "all":
		for _, run := range []func(tpcb.BenchConfig) error{runFig9, runFig10, runFig11, runCrypto} {
			if err = run(cfg); err != nil {
				break
			}
		}
	default:
		err = fmt.Errorf("unknown experiment %q", *exp)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tdbbench:", err)
		os.Exit(1)
	}
}

// runFig9 prints the schema table (paper Figure 9).
func runFig9(cfg tpcb.BenchConfig) error {
	fmt.Println("== Figure 9: TPC-B collections and sizes ==")
	fmt.Printf("%-12s %10s\n", "Collection", "Size")
	fmt.Printf("%-12s %10d\n", "Account", cfg.Scale.Accounts)
	fmt.Printf("%-12s %10d\n", "Teller", cfg.Scale.Tellers)
	fmt.Printf("%-12s %10d\n", "Branch", cfg.Scale.Branches)
	fmt.Printf("%-12s %10d   (grows by 1 per transaction; %d after this run)\n",
		"History", cfg.Txns, cfg.Txns)
	fmt.Println()
	return nil
}

// runOne executes one system on a fresh simulated disk: BerkeleyDB for
// suite "bdb", otherwise TDB on the named crypto suite.
func runOne(suite string, util float64, cfg tpcb.BenchConfig) (tpcb.Result, error) {
	env := tpcb.NewBenchEnv()
	var d tpcb.Driver
	var err error
	if suite == "bdb" {
		d, err = tpcb.NewBDBDriver(tpcb.BDBOptions{Store: env.Store()})
	} else {
		d, err = tpcb.NewTDBDriver(tpcb.TDBOptions{Store: env.Store(), Suite: suite, MaxUtilization: util})
	}
	if err != nil {
		return tpcb.Result{}, err
	}
	defer d.Close()
	return tpcb.Run(env, d, cfg)
}

// runFig10 compares the three systems at the default 60% utilization
// (paper Figure 10).
func runFig10(cfg tpcb.BenchConfig) error {
	fmt.Println("== Figure 10: average TPC-B response time (util 0.60) ==")
	fmt.Printf("   scale: %d accounts, %d txns (%d measured)\n",
		cfg.Scale.Accounts, cfg.Txns, cfg.Txns/2)
	var bdbRes tpcb.Result
	for _, kind := range []string{"bdb", "null", "3des-sha1"} {
		res, err := runOne(kind, 0.60, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", kind, err)
		}
		fmt.Println("  " + res.Row())
		if kind == "bdb" {
			bdbRes = res
		} else {
			fmt.Printf("    -> %.0f%% of BerkeleyDB's response time (paper: TDB 56%%, TDB-S 85%%)\n",
				100*float64(res.AvgResponse)/float64(bdbRes.AvgResponse))
		}
	}
	fmt.Println()
	return nil
}

// runFig11 sweeps the utilization bound (paper Figure 11, both panels).
func runFig11(cfg tpcb.BenchConfig) error {
	fmt.Println("== Figure 11: TDB response time and database size vs utilization ==")
	bdbRes, err := runOne("bdb", 0, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("  BerkeleyDB reference: %s\n", bdbRes.Row())
	for _, util := range []float64{0.50, 0.60, 0.70, 0.80, 0.90} {
		res, err := runOne("null", util, cfg)
		if err != nil {
			return fmt.Errorf("util %.2f: %w", util, err)
		}
		fmt.Printf("  util %.2f: %s\n", util, res.Row())
	}
	fmt.Println()
	return nil
}

// runCrypto compares crypto suites (extension: the paper notes faster
// algorithms than 3DES exist, §7.3).
func runCrypto(cfg tpcb.BenchConfig) error {
	fmt.Println("== Ablation: crypto suites ==")
	for _, suite := range []string{"null", "3des-sha1", "aes-gcm"} {
		res, err := runOne(suite, 0.60, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", suite, err)
		}
		fmt.Printf("  %-10s %s\n", suite, res.Row())
	}
	fmt.Println()
	return nil
}
