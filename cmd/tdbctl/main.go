// Command tdbctl administers a TDB database directory.
//
//	tdbctl -dir DB -secret-file SECRET stats        storage statistics
//	tdbctl -dir DB -secret-file SECRET verify       full tamper audit
//	tdbctl -dir DB -secret-file SECRET ls           list collections
//	tdbctl -dir DB -secret-file SECRET clean        idle-time compaction
//	tdbctl -dir DB -secret-file SECRET checkpoint   checkpoint the location map
//	tdbctl -dir DB -secret-file SECRET -archive A backup        full backup
//	tdbctl -dir NEW -secret-file SECRET -archive A restore      restore a chain
//
// The device secret is read from -secret-file (raw bytes) or -secret
// (literal; development only). Collections can be listed without their
// application classes; reading objects requires the owning application.
package main

import (
	"flag"
	"fmt"
	"os"

	"tdb"
	"tdb/internal/platform"
)

func main() {
	var (
		dir        = flag.String("dir", "", "database directory")
		secretStr  = flag.String("secret", "", "device secret (literal string; development only)")
		secretFile = flag.String("secret-file", "", "file holding the device secret")
		suite      = flag.String("suite", "", "crypto suite the database was created with: aes-ctr-gmac (default), 3des-sha1, null")
		archiveDir = flag.String("archive", "", "backup archive directory")
	)
	flag.Parse()
	if *dir == "" || flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tdbctl -dir DB [-secret-file F] [-archive A] {stats|verify|ls|clean|checkpoint|backup|restore}")
		os.Exit(2)
	}
	cmd := flag.Arg(0)

	secret := []byte(*secretStr)
	if *secretFile != "" {
		b, err := os.ReadFile(*secretFile)
		fatal(err)
		secret = b
	}

	var archive platform.ArchivalStore
	if *archiveDir != "" {
		a, err := platform.NewDirArchive(*archiveDir)
		fatal(err)
		archive = a
	}

	opts := tdb.Options{
		Dir:      *dir,
		Secret:   secret,
		Suite:    *suite,
		Archive:  archive,
		Registry: tdb.NewRegistry(),
	}

	if cmd == "restore" {
		if archive == nil {
			fatal(fmt.Errorf("restore requires -archive"))
		}
		db, err := tdb.Restore(opts, archive)
		fatal(err)
		defer db.Close()
		fmt.Println("restored and validated")
		printStats(db)
		return
	}

	db, err := tdb.Open(opts)
	fatal(err)
	defer db.Close()

	switch cmd {
	case "stats":
		printStats(db)
	case "verify":
		fatal(db.Verify())
		fmt.Println("OK: every stored byte authenticated against the Merkle root")
	case "ls":
		txn := db.Begin()
		defer txn.Abort()
		names, err := txn.ListCollections()
		fatal(err)
		if len(names) == 0 {
			fmt.Println("(no collections)")
		}
		for _, n := range names {
			h, err := txn.ReadCollection(n)
			fatal(err)
			fmt.Printf("%-24s %8d objects  indexes: %v\n", n, h.Size(), h.IndexNames())
		}
	case "clean":
		before := db.Stats()
		fatal(db.Clean())
		after := db.Stats()
		fmt.Printf("compacted: %d -> %d bytes on disk\n", before.DiskBytes, after.DiskBytes)
	case "checkpoint":
		fatal(db.Checkpoint())
		fmt.Println("checkpointed")
	case "backup":
		if archive == nil {
			fatal(fmt.Errorf("backup requires -archive"))
		}
		info, err := db.BackupFull()
		fatal(err)
		fmt.Printf("wrote %s (%d chunks)\n", info.Name, info.Chunks)
	default:
		fatal(fmt.Errorf("unknown command %q", cmd))
	}
}

func printStats(db *tdb.DB) {
	st := db.Stats()
	fmt.Printf("segments:     %d\n", st.Segments)
	fmt.Printf("disk bytes:   %d\n", st.DiskBytes)
	fmt.Printf("live bytes:   %d\n", st.LiveBytes)
	fmt.Printf("utilization:  %.2f\n", st.Utilization)
	fmt.Printf("chunks:       %d\n", st.Chunks)
	fmt.Printf("commit seq:   %d\n", st.CommitSeq)
	fmt.Printf("cleanings:    %d (copied %d bytes)\n", st.Cleanings, st.CleanedBytes)
	fmt.Printf("checkpoints:  %d\n", st.Checkpoints)
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "tdbctl:", err)
		os.Exit(1)
	}
}
