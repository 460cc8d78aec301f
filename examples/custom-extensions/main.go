// custom-extensions demonstrates the Section VI extension points:
//
//  1. widening the executable-extension list beyond ".php"/".php5" (the
//     paper: "variant vulnerabilities may allow files with other potential
//     harmful extensions such as .asa and .swf — UChecker can easily cover
//     these variants by verifying more extensions"), and
//  2. modeling WordPress's add_action('admin_menu', ...) gating, which
//     removes the two false positives of Section IV-A.
//
// Run with:
//
//	go run ./examples/custom-extensions
package main

import (
	"context"
	"fmt"

	"repro/internal/uchecker"
)

// phtmlUploader only admits uploads whose extension equals "phtml", which
// Apache commonly executes as PHP. The stock extension list misses it.
const phtmlUploader = `<?php
$ext = pathinfo($_FILES['f']['name'], PATHINFO_EXTENSION);
if ($ext == "phtml") {
	move_uploaded_file($_FILES['f']['tmp_name'], "/up/x." . $ext);
}
`

// adminUploader allows arbitrary uploads, but only from an admin page —
// the Event Registration Pro Calendar pattern the paper counts as its own
// false positive (Listing 5).
const adminUploader = `<?php
add_action('admin_menu', 'csv_import_page');
function csv_import_page() {
	move_uploaded_file($_FILES['csv']['tmp_name'], "/up/" . $_FILES['csv']['name']);
}
`

func main() {
	ctx := context.Background()
	scan := func(s *uchecker.Scanner, name string, sources map[string]string) *uchecker.AppReport {
		rep, _ := s.Scan(ctx, uchecker.Target{Name: name, Sources: sources})
		return rep
	}
	files := map[string]string{"phtml.php": phtmlUploader}

	stock := uchecker.NewScanner(uchecker.Options{})
	fmt.Printf(".phtml uploader, stock extensions:    vulnerable=%v\n",
		scan(stock, "phtml", files).Vulnerable)

	widened := uchecker.NewScanner(uchecker.Options{
		Extensions: []string{".php", ".php5", ".phtml", ".asa", ".swf"},
	})
	fmt.Printf(".phtml uploader, widened extensions:  vulnerable=%v\n",
		scan(widened, "phtml", files).Vulnerable)

	adminFiles := map[string]string{"admin.php": adminUploader}
	fmt.Printf("\nadmin uploader, paper configuration:  vulnerable=%v (the documented FP)\n",
		scan(stock, "admin", adminFiles).Vulnerable)

	gated := uchecker.NewScanner(uchecker.Options{ModelAdminGating: true})
	gatedRep := scan(gated, "admin", adminFiles)
	fmt.Printf("admin uploader, admin gating modeled: vulnerable=%v", gatedRep.Vulnerable)
	if len(gatedRep.Findings) > 0 && gatedRep.Findings[0].AdminGated {
		fmt.Printf(" (finding recorded but marked admin-gated)")
	}
	fmt.Println()
}
