// Command rhgate evaluates SLO gate specs (internal/conformance/gate)
// over benchmark and service dumps and renders one pass/fail table. It is
// where CI's absolute bounds live — the service SLOs and the conformance
// floor (zero invariant violations) — in a reviewed spec file
// (gates/ci.json), not in inline shell. It compares nothing against a
// baseline; `sh benchmark/run.sh --compare` does that.
//
// Usage:
//
//	rhgate -spec gates/ci.json -dump serve-metrics=serve-dump.json \
//	       -dump scenarios=scenarios.json [-gates serve-slo,conformance] \
//	       [-md summary.md] [-json report.json]
//
// Each -dump NAME=PATH binds one logical dump name (Gate.Dump in the
// spec) to a file; a gate whose dump is unbound fails. -gates restricts
// evaluation to a comma-separated subset of the spec's gates (default:
// every gate). The text table always goes to stdout; -md additionally
// writes the markdown rendering (for $GITHUB_STEP_SUMMARY) and -json the
// machine-readable rhgate.v1 report.
//
// Exit status: 0 when every evaluated cell passes, 1 on any red cell or
// gate error, 2 on usage errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"rhnorec/internal/conformance/gate"
)

// dumpFlags collects repeated -dump NAME=PATH bindings.
type dumpFlags map[string]string

func (d dumpFlags) String() string {
	var parts []string
	for k, v := range d {
		parts = append(parts, k+"="+v)
	}
	return strings.Join(parts, ",")
}

func (d dumpFlags) Set(v string) error {
	name, path, ok := strings.Cut(v, "=")
	if !ok || name == "" || path == "" {
		return fmt.Errorf("want NAME=PATH, got %q", v)
	}
	if _, dup := d[name]; dup {
		return fmt.Errorf("dump %q bound twice", name)
	}
	d[name] = path
	return nil
}

func main() {
	dumps := dumpFlags{}
	var (
		specPath = flag.String("spec", "", "gate spec file (rhgate-spec.v2)")
		gatesCSV = flag.String("gates", "", "comma-separated gate subset (default: every gate in the spec)")
		mdPath   = flag.String("md", "", "also write the markdown table to FILE (for CI job summaries)")
		jsonPath = flag.String("json", "", "also write the machine-readable rhgate.v1 report to FILE")
	)
	flag.Var(dumps, "dump", "bind a logical dump name to a file, as NAME=PATH (repeatable)")
	flag.Parse()
	if *specPath == "" {
		fmt.Fprintln(os.Stderr, "rhgate: -spec is required")
		flag.Usage()
		os.Exit(2)
	}

	spec, err := gate.LoadSpec(*specPath)
	if err != nil {
		fatalf("%v", err)
	}
	in := gate.Inputs{Dumps: dumps}
	if *gatesCSV != "" {
		for _, g := range strings.Split(*gatesCSV, ",") {
			in.Gates = append(in.Gates, strings.TrimSpace(g))
		}
	}
	rep, err := gate.Evaluate(spec, in)
	if err != nil {
		fatalf("%v", err)
	}

	gate.WriteText(os.Stdout, rep)
	if *mdPath != "" {
		f, err := os.Create(*mdPath)
		if err != nil {
			fatalf("%v", err)
		}
		gate.WriteMarkdown(f, rep)
		if err := f.Close(); err != nil {
			fatalf("%v", err)
		}
	}
	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			fatalf("%v", err)
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			f.Close()
			fatalf("%v", err)
		}
		if err := f.Close(); err != nil {
			fatalf("%v", err)
		}
	}
	if !rep.Pass {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rhgate: "+format+"\n", args...)
	os.Exit(2)
}
