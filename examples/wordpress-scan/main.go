// wordpress-scan reproduces the Section IV-B discovery workflow: it scans
// the synthetic re-creations of the three WordPress plugins in which the
// paper found previously unreported vulnerabilities — File Provider 1.2.3,
// WooCommerce Custom Profile Picture 1.0, and WP Demo Buddy 1.0.2 — and
// prints the localized, source-line-level findings for each.
//
// Run with:
//
//	go run ./examples/wordpress-scan
package main

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/corpus"
	"repro/internal/uchecker"
)

func main() {
	scanner := uchecker.NewScanner(uchecker.Options{})
	for _, app := range corpus.NewVulnApps() {
		report, _ := scanner.Scan(context.Background(), uchecker.Target{Name: app.Name, Sources: app.Sources})
		fmt.Printf("=== %s ===\n", app.Name)
		fmt.Printf("verdict: vulnerable=%v  (%d LoC, %.2f%% analyzed, %d paths, %.3fs)\n",
			report.Vulnerable, report.TotalLoC, report.PercentAnalyzed,
			report.Paths, report.Seconds)
		for _, f := range report.Findings {
			fmt.Printf("  %s at %s:%d\n", f.Sink, f.File, f.Line)
			fmt.Printf("  relevant source lines: %v\n", f.Lines)
			printSourceLines(app.Sources[f.File], f.Lines)
			if len(f.Witness) > 0 {
				fmt.Printf("  attacker-controlled assignment making this exploitable:\n")
				for name, v := range f.Witness {
					if strings.Contains(name, "ext") || strings.Contains(name, "name") {
						fmt.Printf("    %s = %s\n", name, v)
					}
				}
			}
		}
		fmt.Println()
	}
}

// printSourceLines shows the flagged lines with a 1-line margin — the
// source-code-focused feedback the paper's AST-level design enables.
func printSourceLines(src string, lines []int) {
	if src == "" || len(lines) == 0 {
		return
	}
	want := map[int]bool{}
	for _, ln := range lines {
		want[ln] = true
	}
	for i, text := range strings.Split(src, "\n") {
		ln := i + 1
		if want[ln] {
			fmt.Printf("    %4d | %s\n", ln, text)
		}
	}
}
