package main

import (
	"reflect"
	"strings"
	"testing"
)

func TestParseOnly(t *testing.T) {
	want, err := parseOnly("")
	if err != nil || len(want) != 0 {
		t.Fatalf("empty -only = %v, %v; want every experiment", want, err)
	}
	want, err = parseOnly("fig6, thm2,fig6")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, map[string]bool{"fig6": true, "thm2": true}) {
		t.Fatalf("parsed %v", want)
	}
	for _, only := range []string{"fig66", "fig6,thm9", "fig6,", "FIG6"} {
		_, err := parseOnly(only)
		if err == nil {
			t.Fatalf("-only %q accepted", only)
		}
		if msg := err.Error(); !strings.Contains(msg, "table1,fig6,fig7,fig7d,fig8,fig9,fig10,fig10u,fig11,thm2,thm3,ablations") {
			t.Fatalf("-only %q: error %q does not list the valid ids", only, msg)
		}
	}
	if _, err := parseOnly("fig6,thm9"); !strings.Contains(err.Error(), `"thm9"`) {
		t.Fatalf("error %q does not name the unknown id", err)
	}
}
