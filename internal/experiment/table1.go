// Table 1 of the paper: the taxonomy of existing anonymous routing
// protocols and the anonymity protections each provides. Static data, kept
// executable so `campaign run table1` regenerates the exact table.

package experiment

import (
	"fmt"
	"strings"
)

// Table1Row is one protocol's classification.
type Table1Row struct {
	Category          string
	Subcategory       string
	Routing           string // "Topology" or "Geographic"
	Name              string
	IdentityAnonymity string
	LocationAnonymity string
	RouteAnonymity    string
}

// Table1 returns the paper's classification of anonymous routing protocols.
func Table1() []Table1Row {
	return []Table1Row{
		{"Reactive", "Hop-by-hop encryption", "Topology", "MASK [32]", "source", "n/a", "yes"},
		{"Reactive", "Hop-by-hop encryption", "Topology", "ANODR [33]", "source, destination", "n/a", "yes"},
		{"Reactive", "Hop-by-hop encryption", "Topology", "Discount-ANODR [34]", "source, destination", "n/a", "yes"},
		{"Reactive", "Hop-by-hop encryption", "Geographic", "Zhou et al. [3]", "source, destination", "source, destination", "no"},
		{"Reactive", "Hop-by-hop encryption", "Geographic", "Pathak et al. [4]", "source, destination", "source, destination", "no"},
		{"Reactive", "Hop-by-hop encryption", "Geographic", "AO2P [10]", "source, destination", "source, destination", "no"},
		{"Reactive", "Hop-by-hop encryption", "Geographic", "PRISM [6]", "source, destination", "source, destination", "no"},
		{"Reactive", "Redundant traffic", "Topology", "Aad [8]", "destination", "n/a", "yes"},
		{"Reactive", "Redundant traffic", "Geographic", "ASR [11]", "source, destination", "source, destination", "no"},
		{"Reactive", "Redundant traffic", "Geographic", "ZAP [13]", "destination", "destination", "no"},
		{"Proactive", "Redundant traffic", "Topology", "ALARM [5]", "source, destination", "source", "no"},
		{"Middleware", "Redundant traffic", "Geographic", "MAPCP [9]", "source, destination", "n/a", "yes"},
		{"Reactive", "Random relay selection", "Geographic", "ALERT (this work)", "source, destination", "source, destination", "yes"},
	}
}

// FormatTable1 renders the taxonomy as an aligned text table.
func FormatTable1() string {
	rows := Table1()
	var b strings.Builder
	fmt.Fprintf(&b, "%-11s %-22s %-11s %-20s %-21s %-21s %s\n",
		"Category", "Subcategory", "Routing", "Name",
		"Identity anonymity", "Location anonymity", "Route anonymity")
	b.WriteString(strings.Repeat("-", 125) + "\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-11s %-22s %-11s %-20s %-21s %-21s %s\n",
			r.Category, r.Subcategory, r.Routing, r.Name,
			r.IdentityAnonymity, r.LocationAnonymity, r.RouteAnonymity)
	}
	return b.String()
}
