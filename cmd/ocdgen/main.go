// Command ocdgen generates the paper's topologies and dumps them as
// Graphviz DOT, a simple arc list, or summary statistics.
//
//	ocdgen -topology transit-stub -n 50 -format dot > g.dot
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"ocd"
	"ocd/internal/cliutil"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ocdgen:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("ocdgen", flag.ContinueOnError)
	var (
		topo   = fs.String("topology", "random", "topology: random | transit-stub")
		n      = fs.Int("n", 50, "number of vertices")
		seed   = fs.Int64("seed", 1, "random seed")
		format = fs.String("format", "dot", "output: dot | arcs | stats")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var g *ocd.Graph
	var err error
	switch *topo {
	case "random":
		g, err = ocd.RandomTopology(*n, ocd.DefaultCaps, *seed)
	case "transit-stub":
		if err := cliutil.CheckTransitStubN(*n); err != nil {
			return err
		}
		g, err = ocd.TransitStubTopology(*n, ocd.DefaultCaps, *seed)
	default:
		return fmt.Errorf("unknown topology %q", *topo)
	}
	if err != nil {
		return err
	}

	switch *format {
	case "dot":
		fmt.Fprint(stdout, g.DOT(*topo))
	case "arcs":
		for _, a := range g.Arcs() {
			fmt.Fprintf(stdout, "%d %d %d\n", a.From, a.To, a.Cap)
		}
	case "stats":
		fmt.Fprintf(stdout, "vertices=%d arcs=%d diameter=%d strongly-connected=%v\n",
			g.N(), g.NumArcs(), g.Diameter(), g.StronglyConnected())
	default:
		return fmt.Errorf("unknown format %q", *format)
	}
	return nil
}
