package analysis

import (
	"reflect"
	"testing"
)

func TestParseAllow(t *testing.T) {
	cases := []struct {
		comment string
		names   []string
		ok      bool
	}{
		{"//im:allow locksafe — WAL durability seam", []string{"locksafe"}, true},
		{"// im:allow hotpath,errclose -- batch buffer growth", []string{"hotpath", "errclose"}, true},
		{"//im:allow hotpath errclose", []string{"hotpath", "errclose"}, true},
		{"//im:allow * — generated code", []string{"*"}, true},
		{"//im:allow", nil, false},           // no names
		{"//im:allowed nothing", nil, false}, // not the directive
		{"// plain comment", nil, false},
		{"/* block */", nil, false},
	}
	for _, c := range cases {
		names, ok := parseAllow(c.comment)
		if ok != c.ok || (ok && !reflect.DeepEqual(names, c.names)) {
			t.Errorf("parseAllow(%q) = %v, %v; want %v, %v", c.comment, names, ok, c.names, c.ok)
		}
	}
}

func TestInScope(t *testing.T) {
	cases := []struct {
		path  string
		names []string
		want  bool
	}{
		{"instameasure/internal/wsaf", []string{"wsaf", "core"}, true},
		{"errclose/store", []string{"store"}, true}, // synthetic testdata path
		{"instameasure/internal/store", []string{"wsaf", "core"}, false},
		{"wsaf", []string{"wsaf"}, true}, // bare path
		{"instameasure/internal/wsafx", []string{"wsaf"}, false},
	}
	for _, c := range cases {
		if got := inScope(c.path, c.names...); got != c.want {
			t.Errorf("inScope(%q, %v) = %v; want %v", c.path, c.names, got, c.want)
		}
	}
}

func TestSuiteNames(t *testing.T) {
	want := []string{"hotpath", "errclose", "locksafe"}
	suite := Suite()
	if len(suite) != len(want) {
		t.Fatalf("Suite() has %d analyzers; want %d", len(suite), len(want))
	}
	for i, a := range suite {
		if a.Name != want[i] {
			t.Errorf("Suite()[%d].Name = %q; want %q", i, a.Name, want[i])
		}
		if a.Run == nil {
			t.Errorf("analyzer %q missing Run", a.Name)
		}
	}
}
