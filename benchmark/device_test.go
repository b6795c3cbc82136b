package main

import "testing"

// With one client and a fixed operation count, the device counts repeat
// exactly: two runs of the same seed give byte-identical write_bytes_per_op,
// syncs_per_op and space_amp.
func TestOneClientCountsRepeat(t *testing.T) {
	var runs [2]*report
	for i := range runs {
		rep, err := measure(config{workload: "tpcb", seed: 42, short: true, maxOps: 200, traceDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = rep
	}
	for _, m := range []string{"write_bytes_per_op", "platform.syncs_per_op", "space_amp"} {
		a, b := runs[0].Metrics[m].Value, runs[1].Metrics[m].Value
		if a != b || a == 0 {
			t.Errorf("%s: %v then %v", m, a, b)
		}
	}
}

func TestDeviceCountsAndDelays(t *testing.T) {
	d := newDevice(0)
	f, err := d.Create("seg")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(make([]byte, 100), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadAt(make([]byte, 40), 10); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	c := d.counts()
	if c.writes != 1 || c.writeBytes != 100 || c.reads != 1 || c.readBytes != 40 || c.syncs != 2 {
		t.Errorf("counts %+v", c)
	}
	if stored, err := d.storedBytes(); err != nil || stored != 100 {
		t.Errorf("storedBytes = %d, %v", stored, err)
	}
}
