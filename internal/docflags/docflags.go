// Package docflags checks the command lines a README shows against the
// flags a binary's flag set defines, so a flag that is removed or renamed
// cannot live on in the documentation. Each binary's tests call Check.
package docflags

import (
	"bufio"
	"bytes"
	"flag"
	"os"
	"path"
	"strings"
	"testing"
)

// shellFences are the fenced-block languages whose lines are commands;
// in a console block only the lines after a "$ " prompt are.
var shellFences = map[string]bool{"sh": true, "bash": true, "shell": true, "console": true}

// Invocations returns the flag names (without dashes) that each
// invocation of bin in readme's shell blocks passes, one slice per
// invocation. bin is matched on the base name of a command's first
// word, or of the package that "go run" runs, so "hyalined",
// "/tmp/hyalined" and "go run ./cmd/hyalined" all count. An optional
// flag shown in brackets ("[-bytes]") counts too.
func Invocations(readme []byte, bin string) [][]string {
	var out [][]string
	lang, inBlock, console := "", false, false
	var pending string
	sc := bufio.NewScanner(bytes.NewReader(readme))
	for sc.Scan() {
		line := sc.Text()
		if trimmed := strings.TrimSpace(line); strings.HasPrefix(trimmed, "```") {
			if inBlock {
				inBlock, pending = false, ""
			} else {
				lang = strings.TrimSpace(strings.TrimPrefix(trimmed, "```"))
				inBlock, console = true, lang == "console"
			}
			continue
		}
		if !inBlock || !shellFences[lang] {
			continue
		}
		if console && pending == "" {
			cmd, ok := strings.CutPrefix(strings.TrimSpace(line), "$ ")
			if !ok {
				continue // output, not a command
			}
			line = cmd
		}
		if cont, ok := strings.CutSuffix(strings.TrimRight(line, " \t"), `\`); ok {
			pending += cont + " "
			continue
		}
		out = append(out, flagsOf(pending+line, bin)...)
		pending = ""
	}
	return out
}

// flagsOf returns the flags of each invocation of bin on one command
// line.
func flagsOf(line, bin string) [][]string {
	var out [][]string
	var cur, words []string // words: the current command's so far
	in := false
	for _, tok := range strings.Fields(line) {
		if strings.HasPrefix(tok, "#") {
			break
		}
		switch tok {
		case "|", "||", "&&", ";", "&":
			if in {
				out = append(out, cur)
			}
			cur, words, in = nil, nil, false
			continue
		}
		tok = strings.Trim(tok, "[]")
		words = append(words, tok)
		command := len(words) == 1 || len(words) == 3 && words[0] == "go" && words[1] == "run"
		switch {
		case !in && command && path.Base(tok) == bin:
			in = true
		case in && len(tok) > 1 && tok[0] == '-':
			name := strings.TrimLeft(tok, "-")
			name, _, _ = strings.Cut(name, "=")
			if name != "" && (name[0] < '0' || name[0] > '9') {
				cur = append(cur, name)
			}
		}
	}
	if in {
		out = append(out, cur)
	}
	return out
}

// Check fails t for every flag that an invocation of the binary fs
// belongs to, in the README at readme, passes and fs does not define
// (-h and -help aside, which the flag package answers itself). It also
// fails when the README shows no invocation of that binary.
func Check(t *testing.T, readme string, fs *flag.FlagSet) {
	t.Helper()
	text, err := os.ReadFile(readme)
	if err != nil {
		t.Fatal(err)
	}
	bin := fs.Name()
	calls := Invocations(text, bin)
	if len(calls) == 0 {
		t.Fatalf("%s shows no invocation of %s", readme, bin)
	}
	for _, flags := range calls {
		for _, f := range flags {
			if fs.Lookup(f) == nil && f != "h" && f != "help" {
				t.Errorf("%s passes -%s to %s, which defines no such flag", readme, f, bin)
			}
		}
	}
}
