// Command stateflowc is the StateFlow compiler CLI: it compiles a
// stateful-entity source file into the dataflow intermediate
// representation and renders it in several forms.
//
// Usage:
//
//	stateflowc [flags] program.sf
//
//	-emit report    whole-program report (default)
//	-emit listing   split-function listings (§2.4) for every method
//	-emit dot       logical dataflow graph in Graphviz DOT (Figure 2)
//	-emit json      IR metadata as JSON
//	-method C.m     restrict listing output to one method
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"statefulentities.dev/stateflow/internal/compiler"
)

func main() {
	emit := flag.String("emit", "report", "output form: report | listing | dot | json")
	method := flag.String("method", "", "restrict listing to Class.method")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: stateflowc [-emit report|listing|dot|json] [-method C.m] program.sf")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	prog, err := compiler.Compile(string(src))
	if err != nil {
		fatal(err)
	}
	switch *emit {
	case "report":
		fmt.Print(prog.Report())
	case "dot":
		fmt.Print(prog.Dot())
	case "json":
		out, err := json.MarshalIndent(prog, "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(out))
	case "listing":
		for _, opName := range prog.OperatorOrder {
			op := prog.Operators[opName]
			for _, mn := range op.MethodOrder {
				qn := opName + "." + mn
				if *method != "" && qn != *method {
					continue
				}
				if strings.HasPrefix(mn, "__") && *method == "" {
					continue
				}
				fmt.Printf("# %s\n%s\n", qn, op.Methods[mn].Listing())
			}
		}
	default:
		fatal(fmt.Errorf("unknown -emit %q", *emit))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "stateflowc:", err)
	os.Exit(1)
}
