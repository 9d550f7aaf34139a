// Command experiments regenerates the paper's experiment tables (E1–E12
// plus the ablations) and prints them in the stable textual form of the
// golden fixtures — the quickest way to eyeball a full reproduction run or
// to diff two engine configurations.
//
// Usage:
//
//	experiments               # every table
//	experiments -id E3,E7     # only these tables, in suite order
//
// The suite runs on GOMAXPROCS workers. Each experiment is an independent
// deterministic simulation, so the output is identical whatever the
// worker count; only wall-clock time changes. Ctrl-C cancels between
// experiments, after printing the tables that completed.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strings"

	"repro/internal/core"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	idFlag := fs.String("id", "", "comma-separated table IDs, case-insensitive (default: all)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var ids []string
	for _, id := range strings.Split(*idFlag, ",") {
		if id = strings.ToUpper(strings.TrimSpace(id)); id != "" {
			ids = append(ids, id)
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	// On error or Ctrl-C the suite still hands back every table that
	// completed: print those before reporting the failure.
	tables, err := core.ExperimentsContext(ctx, runtime.GOMAXPROCS(0), ids...)
	for _, t := range tables {
		fmt.Fprint(out, t.Text())
	}
	return err
}
