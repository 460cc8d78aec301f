// Quickstart: scan the paper's canonical vulnerable upload handler
// (Listing 4) with the scanner API and print the verdict, constraints, and
// exploit witness.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"sort"
	"time"

	"repro/internal/uchecker"
)

// listing4 is the vulnerable example of the UChecker paper (Listing 4):
// the uploaded file is stored under a path derived from its original name
// with no extension check.
const listing4 = `<?php
$path_array = wp_upload_dir();
$pathAndName = $path_array['path'] . "/" . $_FILES['upload_file']['name'];
if (!move_uploaded_file($_FILES['upload_file']['tmp_name'], $pathAndName)) {
	return false;
}
return true;
`

func main() {
	// Scanner v2: context-aware, with a bounded worker pool. A deadline
	// guards against pathological inputs; phases 3–6 fan out per root.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	scanner := uchecker.NewScanner(uchecker.Options{KeepSMT: true})
	report, err := scanner.Scan(ctx, uchecker.Target{
		Name:    "listing4",
		Sources: map[string]string{"upload.php": listing4},
	})
	if err != nil {
		log.Fatalf("scan aborted: %v", err)
	}

	fmt.Printf("verdict: vulnerable=%v\n", report.Vulnerable)
	fmt.Printf("locality: %d/%d LoC analyzed (%.1f%%), %d paths explored\n",
		report.AnalyzedLoC, report.TotalLoC, report.PercentAnalyzed, report.Paths)

	for _, f := range report.Findings {
		fmt.Printf("\nfinding: %s at %s:%d\n", f.Sink, f.File, f.Line)
		fmt.Printf("  source lines involved: %v\n", f.Lines)
		fmt.Printf("  destination (PHP s-expression):  %s\n", f.SeDst)
		fmt.Printf("  exploit witness (solver model):\n")
		names := make([]string, 0, len(f.Witness))
		for name := range f.Witness {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Printf("    %s = %s\n", name, f.Witness[name])
		}
		fmt.Printf("\n  SMT-LIB2 constraint handed to the solver:\n%s", f.SMTLIB)
	}
}
