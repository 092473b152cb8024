package alert_test

import (
	"fmt"

	alert "alertmanet"
)

// ExampleDefaultConfig shows the paper's evaluation parameters and the
// derived partition depth H = log2(N/k).
func ExampleDefaultConfig() {
	cfg := alert.DefaultConfig()
	net, err := alert.NewNetwork(cfg)
	if err != nil {
		panic(err)
	}
	fmt.Println("nodes:", net.Nodes())
	fmt.Println("partitions H:", net.PartitionDepth())
	minX, minY, maxX, maxY := net.DestZone(0)
	fmt.Printf("Z_D area: %.0f m^2\n", (maxX-minX)*(maxY-minY))
	// Output:
	// nodes: 200
	// partitions H: 5
	// Z_D area: 31250 m^2
}

// ExampleRunIntersectionAttack demonstrates Section 3.3: the two-step
// multicast removes the destination from the attacker's intersection.
func ExampleRunIntersectionAttack() {
	plain := alert.RunIntersectionAttack(1, 25, false)
	guarded := alert.RunIntersectionAttack(1, 25, true)
	fmt.Println("plain broadcast, D still a candidate:", plain.DestinationCandidate)
	fmt.Println("two-step multicast, D still a candidate:", guarded.DestinationCandidate)
	// Output:
	// plain broadcast, D still a candidate: true
	// two-step multicast, D still a candidate: false
}
