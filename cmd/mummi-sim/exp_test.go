package main

import (
	"strings"
	"testing"
)

func TestSelectExperiments(t *testing.T) {
	names := func(rows []experiment) string {
		var s []string
		for _, e := range rows {
			s = append(s, e.name)
		}
		return strings.Join(s, ",")
	}
	all, err := selectExperiments("all")
	if err != nil || len(all) != len(experiments) {
		t.Fatalf("all: %d rows, err %v; want every one of %d", len(all), err, len(experiments))
	}
	rows, err := selectExperiments("fig5, table1,counts")
	if err != nil || names(rows) != "table1,fig5,counts" {
		t.Errorf("fig5,table1,counts: %q, err %v; want table order", names(rows), err)
	}
	_, err = selectExperiments("fig8,fig9")
	if err == nil || !strings.Contains(err.Error(), `"fig9"`) || !strings.Contains(err.Error(), "table1, fig3, ") {
		t.Errorf("fig9: error %v, want it rejected with the list", err)
	}

	// The systems experiments run against the real components; selecting
	// only those must never build a campaign.
	var systems []string
	for _, e := range experiments {
		if !e.needsReplay {
			systems = append(systems, e.name)
		}
	}
	if got, want := strings.Join(systems, ","), "fig7,fig8,fluxfix,taridx,feedback12x,ml165x,bundling,inventory"; got != want {
		t.Errorf("experiments that skip the replay: %s, want %s", got, want)
	}
}
