package phplex

import (
	"testing"

	"repro/internal/phptoken"
)

// FuzzLex asserts the lexer never panics on arbitrary bytes, always
// terminates, and always ends the token stream with exactly one EOF —
// the progress contract the parser's error recovery depends on. EOF is
// sticky: once Next returns it, later calls return the same token and
// record no more errors, so the parser may pull past the end.
func FuzzLex(f *testing.F) {
	for _, seed := range []string{
		"",
		"plain html only",
		"<?php echo 1;",
		"<?php $s = \"never closed",
		"<?php $s = 'never closed",
		"<?php /* unterminated",
		"<?php // line comment\n# hash comment",
		"<?php $h = <<<EOT\nnever terminated",
		"<?php $h = <<<'RAW'\ntext\nRAW;\n",
		"<?php ?>html<?php ?>more<?",
		"<?= $short ?>",
		"<?php $x = \"a{$b->c}d$e[f]g\";",
		"<?php 0x1f 0b101 077 1.5e3 1e309 .5",
		"<?php <=> ?? ??= <<= >>= ** ... :: -> =>",
		"<?php \x00\x80\xff\xfe",
		"<?php $",
		"<?ph",
		"<",
		// Escape-sequence edges: hex/octal/unicode escapes, including the
		// invalid shapes DecodeEscapes must keep verbatim.
		`<?php $d = "\x2ephp";`,
		`<?php $d = "\x41\102\u{43}";`,
		`<?php $d = "\u{}";`,
		`<?php $d = "\u{110000}";`,
		`<?php $d = "\u{FFFFFFFFFFFFFFFFFF41}";`,
		`<?php $d = "\u{D800}\u{48`,
		`<?php $d = "\777\x";`,
		"<?php $d = \"\\",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		l := New("fuzz.php", src)
		toks := tokens(l)
		if len(toks) == 0 {
			t.Fatal("empty token stream (missing EOF)")
		}
		for i, tok := range toks {
			if tok.Kind == phptoken.EOF && i != len(toks)-1 {
				t.Fatalf("EOF at %d of %d, want last", i, len(toks))
			}
			if tok.Pos.Line < 0 || tok.Pos.Col < 0 {
				t.Fatalf("negative position %+v", tok.Pos)
			}
		}
		eof := toks[len(toks)-1]
		if eof.Kind != phptoken.EOF {
			t.Fatalf("stream ends with %v, want EOF", eof)
		}
		errs := len(l.Errors())
		for i := 0; i < 3; i++ {
			if tok := l.Next(); tok != eof {
				t.Fatalf("Next after EOF = %+v, want %+v", tok, eof)
			}
		}
		if len(l.Errors()) != errs {
			t.Fatalf("Next after EOF added errors: %v", l.Errors()[errs:])
		}
	})
}
