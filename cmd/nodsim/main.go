// Command nodsim runs the reproduction's experiments: every worked example,
// status scenario, adaptation walk-through and synthetic study of
// EXPERIMENTS.md.
//
// Usage:
//
//	nodsim -exp E3        # one experiment
//	nodsim -exp all       # everything
//	nodsim -list          # list experiment ids
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"qosneg/internal/experiments"
)

func main() {
	all := experiments.All()
	ids := make([]string, len(all))
	for i, e := range all {
		ids[i] = e.ID
	}
	exp := flag.String("exp", "all", "experiment id ("+strings.Join(ids, ", ")+") or \"all\"")
	list := flag.Bool("list", false, "list available experiments and exit")
	flag.Parse()

	if *list {
		for _, e := range all {
			fmt.Printf("%-4s %-60s [%s]\n", e.ID, e.Title, e.Paper)
		}
		return
	}
	if err := experiments.Run(*exp, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "nodsim:", err)
		os.Exit(1)
	}
}
