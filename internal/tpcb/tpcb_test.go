package tpcb

import (
	"testing"

	"tdb/internal/collection"
	"tdb/internal/platform"
)

func TestRecordSizesMatchSpec(t *testing.T) {
	if err := Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestGeneratorDeterministicAndInRange(t *testing.T) {
	g1 := NewGenerator(42, SmallScale)
	g2 := NewGenerator(42, SmallScale)
	for i := 0; i < 1000; i++ {
		a, b := g1.Next(), g2.Next()
		if a != b {
			t.Fatalf("streams diverge at %d", i)
		}
		if a.Account < 0 || int(a.Account) >= SmallScale.Accounts ||
			a.Teller < 0 || int(a.Teller) >= SmallScale.Tellers ||
			a.Branch < 0 || int(a.Branch) >= SmallScale.Branches {
			t.Fatalf("out of range op: %+v", a)
		}
		if a.Delta < -999999 || a.Delta > 999999 {
			t.Fatalf("delta out of range: %d", a.Delta)
		}
	}
}

// tinyScale keeps correctness tests fast.
var tinyScale = Scale{Accounts: 200, Tellers: 20, Branches: 5}

func TestTDBDriverCorrectness(t *testing.T) {
	for _, suite := range []string{"null", "3des-sha1"} {
		d, err := NewTDBDriver(TDBOptions{
			Store:   platform.NewMemStore(),
			Suite:   suite,
			Counter: platform.NewMemCounter(),
		})
		if err != nil {
			t.Fatalf("NewTDBDriver: %v", err)
		}
		t.Run(d.Name(), func(t *testing.T) {
			if err := d.Load(tinyScale); err != nil {
				t.Fatalf("Load: %v", err)
			}
			gen := NewGenerator(7, tinyScale)
			var wantAccount = map[int32]int64{}
			var ops []Op
			for i := 0; i < 60; i++ {
				op := gen.Next()
				ops = append(ops, op)
				if err := d.Run(op); err != nil {
					t.Fatalf("txn %d: %v", i, err)
				}
				wantAccount[op.Account] += op.Delta
			}
			// Check a few balances through the collection API.
			ct := d.DB().Begin()
			defer ct.Abort()
			h, err := ct.ReadCollection("account")
			if err != nil {
				t.Fatalf("ReadCollection: %v", err)
			}
			for id, want := range wantAccount {
				it, _ := h.QueryExact(d.accountIx, collection.IntKey(id))
				if !it.Next() {
					t.Fatalf("account %d missing", id)
				}
				row, err := collection.ReadAs[*Account](it)
				if err != nil {
					t.Fatalf("ReadAs: %v", err)
				}
				if row.Balance != want {
					t.Fatalf("account %d balance %d, want %d", id, row.Balance, want)
				}
				it.Close()
			}
			// History has one row per transaction, in order.
			hh, _ := ct.ReadCollection("history")
			if hh.Size() != int64(len(ops)) {
				t.Fatalf("history size %d, want %d", hh.Size(), len(ops))
			}
			if err := d.VerifyDB(); err != nil {
				t.Fatalf("VerifyDB: %v", err)
			}
			if err := d.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
		})
	}
}

func TestBDBDriverCorrectness(t *testing.T) {
	mem := platform.NewMemStore()
	d, err := NewBDBDriver(BDBOptions{Store: mem})
	if err != nil {
		t.Fatalf("NewBDBDriver: %v", err)
	}
	if err := d.Load(tinyScale); err != nil {
		t.Fatalf("Load: %v", err)
	}
	gen := NewGenerator(7, tinyScale)
	want := map[int32]int64{}
	for i := 0; i < 60; i++ {
		op := gen.Next()
		if err := d.Run(op); err != nil {
			t.Fatalf("txn %d: %v", i, err)
		}
		want[op.Account] += op.Delta
	}
	txn := d.Env().Begin()
	defer txn.Abort()
	for id, balance := range want {
		row, err := txn.Get(d.accounts, key32(id))
		if err != nil {
			t.Fatalf("Get(%d): %v", id, err)
		}
		if got := rowBalance(row); got != balance {
			t.Fatalf("account %d balance %d, want %d", id, got, balance)
		}
	}
}

func TestBothDriversAgreeOnBalances(t *testing.T) {
	// The two systems, fed the same request stream, must compute identical
	// balances — the baseline and TDB implement the same benchmark.
	tdbD, err := NewTDBDriver(TDBOptions{Store: platform.NewMemStore(), Counter: platform.NewMemCounter()})
	if err != nil {
		t.Fatalf("NewTDBDriver: %v", err)
	}
	bdbD, err := NewBDBDriver(BDBOptions{Store: platform.NewMemStore()})
	if err != nil {
		t.Fatalf("NewBDBDriver: %v", err)
	}
	if err := tdbD.Load(tinyScale); err != nil {
		t.Fatalf("tdb load: %v", err)
	}
	if err := bdbD.Load(tinyScale); err != nil {
		t.Fatalf("bdb load: %v", err)
	}
	g1 := NewGenerator(11, tinyScale)
	g2 := NewGenerator(11, tinyScale)
	for i := 0; i < 50; i++ {
		if err := tdbD.Run(g1.Next()); err != nil {
			t.Fatalf("tdb txn: %v", err)
		}
		if err := bdbD.Run(g2.Next()); err != nil {
			t.Fatalf("bdb txn: %v", err)
		}
	}
	// Compare every branch balance (only 5, and every txn touches one).
	ct := tdbD.DB().Begin()
	defer ct.Abort()
	h, _ := ct.ReadCollection("branch")
	txn := bdbD.Env().Begin()
	defer txn.Abort()
	for id := int32(0); id < int32(tinyScale.Branches); id++ {
		it, _ := h.QueryExact(tdbD.branchIx, collection.IntKey(id))
		if !it.Next() {
			t.Fatalf("branch %d missing in TDB", id)
		}
		row, _ := collection.ReadAs[*Branch](it)
		bdbRow, err := txn.Get(bdbD.branches, key32(id))
		if err != nil {
			t.Fatalf("branch %d missing in BDB: %v", id, err)
		}
		if row.Balance != rowBalance(bdbRow) {
			t.Fatalf("branch %d: TDB %d vs BDB %d", id, row.Balance, rowBalance(bdbRow))
		}
		it.Close()
	}
}

func TestHarnessProducesResults(t *testing.T) {
	env := NewBenchEnv()
	d, err := NewTDBDriver(TDBOptions{Store: env.Store(), Counter: platform.NewMemCounter()})
	if err != nil {
		t.Fatalf("NewTDBDriver: %v", err)
	}
	res, err := Run(env, d, BenchConfig{Scale: tinyScale, Txns: 40, Seed: 3})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Measured != 20 || res.Txns != 40 {
		t.Fatalf("result counts: %+v", res)
	}
	if res.AvgResponse <= 0 || res.BytesPerTxn <= 0 || res.FinalDBBytes <= 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
	if res.AvgDisk <= 0 {
		t.Fatal("simulated disk time missing from result")
	}
	if len(res.Row()) == 0 {
		t.Fatal("empty row")
	}
	d.Close()
}

func TestTDBCrashDuringBenchmarkRecovers(t *testing.T) {
	mem := platform.NewMemStore()
	d, err := NewTDBDriver(TDBOptions{Store: mem, Suite: "3des-sha1", Counter: platform.NewMemCounter()})
	if err != nil {
		t.Fatalf("NewTDBDriver: %v", err)
	}
	if err := d.Load(tinyScale); err != nil {
		t.Fatalf("Load: %v", err)
	}
	gen := NewGenerator(23, tinyScale)
	for i := 0; i < 30; i++ {
		if err := d.Run(gen.Next()); err != nil {
			t.Fatalf("txn: %v", err)
		}
	}
	// Power loss mid-benchmark; reopening must recover and keep serving.
	mem.Crash()
	// Note: the same MemCounter persists ("hardware").
	d2, err := NewTDBDriver(TDBOptions{Store: mem, Suite: "3des-sha1", Counter: counterOf(d)})
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	if err := d2.VerifyDB(); err != nil {
		t.Fatalf("Verify after crash: %v", err)
	}
	// Caveat: d2.histSeq restarts; History uses a list index (non-unique),
	// so appends still work.
	for i := 0; i < 5; i++ {
		if err := d2.Run(gen.Next()); err != nil {
			t.Fatalf("post-crash txn: %v", err)
		}
	}
	d2.Close()
}

// counterOf extracts the counter used by a driver for crash tests.
func counterOf(d *TDBDriver) platform.OneWayCounter { return d.counter }
