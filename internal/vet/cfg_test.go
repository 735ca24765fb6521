package vet_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"incentivetree/internal/vet"
)

// TestCFGBranchTargets pins where each break/continue edge lands. Every
// possible target block holds a marker call (a loop's post statement,
// its condition, its range expression, or the first statement after a
// loop or select), so the golden lists each branch as
// "line: statement -> marker".
func TestCFGBranchTargets(t *testing.T) {
	for _, tc := range []struct {
		name, body string
		want       []string
	}{
		{
			name: "labeled continue through nested switches",
			body: `
outer:
	for i := 0; i < n; step() {
		switch i {
		case 1:
			switch n {
			case 2:
				continue outer
			}
		}
	}
	after()`,
			want: []string{"7: continue outer -> step"},
		},
		{
			name: "labeled continue through select and switch",
			body: `
outer:
	for range items() {
		select {
		case <-ch:
			switch {
			default:
				continue outer
			}
		}
	}
	after()`,
			want: []string{"7: continue outer -> items"},
		},
		{
			name: "labeled and unlabeled continue through type switch",
			body: `
outer:
	for cond() {
		for range items() {
			switch v.(type) {
			case int:
				continue outer
			case string:
				continue
			}
		}
	}
	after()`,
			want: []string{
				"6: continue outer -> cond",
				"8: continue -> items",
			},
		},
		{
			name: "break and continue inside select in a loop",
			body: `
loop:
	for cond() {
		select {
		case <-ch:
			break
		case <-done:
			break loop
		default:
			continue
		}
		tail()
	}
	after()`,
			want: []string{
				"5: break -> tail",
				"7: break loop -> after",
				"9: continue -> cond",
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := "package p\n\nfunc f(n int, v any, ch, done chan int) {" + tc.body + "\n}\n"
			fset := token.NewFileSet()
			file, err := parser.ParseFile(fset, "p.go", src, 0)
			if err != nil {
				t.Fatal(err)
			}
			cfg := vet.NewCFG(file.Decls[0].(*ast.FuncDecl).Body)
			var got []string
			for _, b := range cfg.Blocks {
				for _, n := range b.Nodes {
					br, ok := n.(*ast.BranchStmt)
					if !ok {
						continue
					}
					stmt := br.Tok.String()
					if br.Label != nil {
						stmt += " " + br.Label.Name
					}
					var targets []string
					for _, s := range b.Succs {
						targets = append(targets, marker(cfg, s))
					}
					// The body's first line (the label) is file
					// line 4; report lines counted from it.
					line := fset.Position(br.Pos()).Line - 3
					got = append(got, fmt.Sprintf("%d: %s -> %s", line, stmt, strings.Join(targets, ",")))
				}
			}
			if strings.Join(got, "\n") != strings.Join(tc.want, "\n") {
				t.Errorf("branch targets:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(tc.want, "\n"))
			}
		})
	}
}

// marker names a block by the first function it calls, or "exit".
func marker(cfg *vet.CFG, b *vet.Block) string {
	if b == cfg.Exit {
		return "exit"
	}
	name := "?"
	for _, n := range b.Nodes {
		ast.Inspect(n, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && name == "?" {
				if id, ok := call.Fun.(*ast.Ident); ok {
					name = id.Name
				}
			}
			return name == "?"
		})
	}
	return name
}
