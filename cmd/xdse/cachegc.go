package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"xdse/internal/evalcache"
)

// runCacheGC implements `xdse cache-gc -cache-dir DIR -max-age AGE`: open
// the persistent evaluation store, retire every record written longer than
// AGE ago, and compact the journal. A record's age is its write time: reads
// do not refresh it, so a record campaigns still hit is retired once it is
// old. Retirement is safe by
// construction — records are content-addressed sub-results, so a retired
// record only means a future campaign recomputes that layer.
func runCacheGC(args []string) int {
	fs := flag.NewFlagSet("xdse cache-gc", flag.ExitOnError)
	dir := fs.String("cache-dir", "", "persistent evaluation-cache directory (required)")
	maxAge := fs.Duration("max-age", 30*24*time.Hour, "retire records written longer ago than this")
	fs.Parse(args)
	if *dir == "" || fs.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "usage: xdse cache-gc -cache-dir DIR [-max-age AGE]\n")
		return 2
	}
	warnf := func(format string, a ...any) {
		fmt.Fprintf(os.Stderr, "xdse cache-gc: "+format+"\n", a...)
	}
	store, err := evalcache.Open(*dir, evalcache.Options{Warnf: warnf})
	if err != nil {
		fmt.Fprintf(os.Stderr, "xdse cache-gc: %v\n", err)
		return 1
	}
	before := store.Len()
	retired, err := store.GC(*maxAge)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xdse cache-gc: %v\n", err)
		return 1
	}
	fmt.Printf("cache-gc: %s: retired %d of %d records older than %v (%d kept)\n",
		*dir, retired, before, *maxAge, before-retired)
	return 0
}
