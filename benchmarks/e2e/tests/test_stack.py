import stack


class FakeClusterClient:
    def __init__(self):
        self.calls = []

    def get(self, entity_id, namespace):
        self.calls.append(("get", entity_id, namespace))
        return {"features": {"value": float(entity_id)}}

    def put(self, entity_id, value, attributes, timestamp):
        self.calls.append(("put", entity_id, value, attributes, timestamp))
        return {"acks": 1}


def test_adapter_maps_one_to_one_onto_the_cluster_client():
    client = FakeClusterClient()
    online = stack.ClusterOnline(lambda: client)
    assert online.read("features", 5) == {"value": 5.0}
    assert online.read_many("features", [1, 2, 3]) == [
        {"value": 1.0}, {"value": 2.0}, {"value": 3.0}
    ]
    values = {"value": 9.0, "f1": 1.0, "f2": 0.5}
    online.write("features", 9, values, 1234.5)
    assert client.calls == [
        ("get", 5, "features"),
        ("get", 1, "features"), ("get", 2, "features"), ("get", 3, "features"),
        ("put", 9, 9.0, {"f1": 1.0, "f2": 0.5}, 1234.5),
    ]
    assert values == {"value": 9.0, "f1": 1.0, "f2": 0.5}  # caller's dict untouched
    assert online.clients == [client]  # one client per calling thread


def test_adapter_adds_no_cleverness():
    # later changes cannot edit the benchmark, so nothing here may batch, cache,
    # retry or wait: the adapter's whole surface is three delegating methods
    public = [n for n in vars(stack.ClusterOnline) if not n.startswith("_")]
    assert sorted(public) == ["read", "read_many", "write"]
