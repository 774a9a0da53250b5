"""Immutable objects built once per exact key: groups, bundle actions,
systems, the conjugation action, identity channels, tensor products,
discrete relations, the complete simple graph and transport plans.  Keys
are exact (ints, tuples, bytes, digests), so objects that are only equal
within round-off are each built from their own bytes, and a build that
raises is not kept.  What a check derives from one object is kept on that
object (groups.kept), and no module writes another object's memo."""

import ast
import contextlib
import dataclasses
import gc
import io
import json
import pathlib
import pickle
import weakref

import numpy as np
import pytest

import covgraphs
from covgraphs import bundle, cli, cpmaps, graphs, groups, relations, scc, systems
from covgraphs.bundle import BundleError
from covgraphs.errors import ActionShapeMismatch, GroupMismatch

from genutil import held, inner_action, unitary, unshared_system

C2 = {"order": 2, "mult_table": [[0, 1], [1, 0]], "identity": 0}


def _reflection(theta: float) -> np.ndarray:
    """A real reflection.  Each test takes angles no other test uses: a
    shared object keeps the system or action of its first caller, which
    the tests compare by identity, so a second test on the same bytes would
    pass or fail by test order."""
    return np.array([[np.cos(theta), np.sin(theta)],
                     [np.sin(theta), -np.cos(theta)]], dtype=complex)


def _z2_system(u: np.ndarray):
    """Qubit on which the nontrivial element of Z2 acts by conjugation with u,
    built by the raw System constructor: each call is a new system with a
    new action, whatever its bytes."""
    z2 = groups.cyclic_group(2)
    return systems.System((2,), inner_action(z2, 2, [np.eye(2), u]), (2.0,))


def _conjugation_bundle(u: np.ndarray, extra: dict | None = None) -> dict:
    eye = bundle.matrix_to_json(np.eye(2))
    return {
        "group": C2,
        "systems": {"A": {"factors": [2],
                          "action": {"perms": {"1": [0]},
                                     "unitaries": {"1": [bundle.matrix_to_json(u)]}}}},
        "channels": {"id": {"from": "A", "to": "A", "kraus": {"0,0": [eye]}}},
        **(extra or {}),
    }


def _stack(action):
    (_, stack), = action.factor_classes().values()
    return stack


class TestGroups:
    def test_cyclic_and_symmetric_groups_are_shared(self):
        assert groups.cyclic_group(3) is groups.cyclic_group(3)
        assert groups.symmetric_group(3) is groups.symmetric_group(3)
        assert groups.cyclic_group(2) is not groups.cyclic_group(3)

    def test_equal_tables_share_one_group_across_constructors(self):
        c3 = groups.cyclic_group(3)
        table = [list(row) for row in c3.table]
        got = bundle.group_from_json({"order": 3, "mult_table": table, "identity": 0})
        assert got is c3
        assert bundle.group_from_json({"order": 1, "mult_table": [[0]]}) is groups.trivial_group()

    @pytest.mark.parametrize("table, identity, message", [
        (((0, 1), (1, 0)), 5, "identity 5"),
        (((0, 1), (1, 0)), -1, "identity -1"),
        (((0, 1), (1,)), 0, "order x order"),
        (((0, 1),), 0, "order x order"),
        ((0, 1), 0, "order x order"),
    ])
    def test_malformed_group_raises_on_every_call(self, table, identity, message):
        for _ in range(2):
            with pytest.raises(GroupMismatch, match=message):
                groups.FiniteGroup(2, table, identity)
            with pytest.raises(GroupMismatch, match=message):
                groups.shared_group(2, table, identity)


class TestBundleSharing:
    def test_loads_share_the_group_and_the_unitary_action(self):
        z = np.diag([1.0, -1.0])
        a, b = (bundle.load_bundle(_conjugation_bundle(z)) for _ in range(2))
        assert a.group is b.group is groups.cyclic_group(2)
        assert a.systems["A"] is b.systems["A"]
        assert a.systems["A"].action is b.systems["A"].action
        assert np.array_equal(unitary(a.systems["A"].action, 1, 0), z)

    def test_unitaries_equal_within_roundoff_get_their_own_action(self):
        u, close = _reflection(0.31), _reflection(0.31 + 1e-15)
        assert not np.array_equal(u, close)
        a = bundle.load_bundle(_conjugation_bundle(u)).systems["A"]
        b = bundle.load_bundle(_conjugation_bundle(close)).systems["A"]
        assert a == b and a.action is not b.action
        assert np.array_equal(unitary(a.action, 1, 0), u)
        assert np.array_equal(unitary(b.action, 1, 0), close)

    def test_non_unitary_action_raises_on_every_load(self):
        data = _conjugation_bundle(np.diag([1.0, 2.0]))
        for _ in range(2):
            with pytest.raises(ActionShapeMismatch, match="not unitary"):
                bundle.load_bundle(data)


# Malformed groups of a bundle: (group, error, text the error names).
MALFORMED_GROUPS = {
    "identity out of range": ({"order": 2, "mult_table": [[0, 1], [1, 0]], "identity": 5},
                              GroupMismatch, "identity 5 is not an element"),
    "ragged table": ({"order": 2, "mult_table": [[0, 1], [1]], "identity": 0},
                     GroupMismatch, "order x order"),
    "float entry": ({"order": 2, "mult_table": [[0, 1], [1.5, 0]], "identity": 0},
                    BundleError, "1.5 is not an integer"),
    "bool entry": ({"order": 2, "mult_table": [[0, True], [1, 0]], "identity": 0},
                   BundleError, "True is not an integer"),
    "row not a list": ({"order": 2, "mult_table": [[0, 1], 1], "identity": 0},
                       BundleError, "list of rows"),
    "no order": ({"mult_table": [[0, 1], [1, 0]], "identity": 0},
                 BundleError, "group needs 'order'"),
    "no table": ({"order": 2, "identity": 0}, BundleError, "group needs 'mult_table'"),
}


class TestMalformedGroups:
    @pytest.mark.parametrize("case", sorted(MALFORMED_GROUPS))
    def test_load_bundle_raises_on_every_load(self, case):
        group, error, text = MALFORMED_GROUPS[case]
        data = _conjugation_bundle(np.diag([1.0, -1.0]), {"group": group})
        for _ in range(2):
            with pytest.raises(error, match=text):
                bundle.load_bundle(data)

    @pytest.mark.parametrize("case", sorted(MALFORMED_GROUPS))
    def test_cli_exits_2_on_every_run(self, case, tmp_path):
        group, _, text = MALFORMED_GROUPS[case]
        path = tmp_path / "bad_group.json"
        path.write_text(json.dumps(_conjugation_bundle(np.diag([1.0, -1.0]), {"group": group})))
        for _ in range(2):
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["analyze-channel", str(path), "id"]) == 2
            assert "cannot load bundle" in err.getvalue() and text in err.getvalue()


class TestConjugationAction:
    def test_exactly_equal_systems_share_one_action_per_extra(self):
        z = np.diag([1.0, -1.0])
        a, b = _z2_system(z), _z2_system(z)
        assert a is not b and a.action is not b.action
        shared = graphs._conjugation_action(a.action, 0)
        assert graphs._conjugation_action(b.action, 0) is shared
        padded = graphs._conjugation_action(b.action, extra=1)
        assert padded is not shared and padded.dims == (5,)
        assert graphs._conjugation_action(a.action, 1) is padded

    def test_roundoff_close_systems_get_actions_from_their_own_bytes(self):
        a, b = _z2_system(_reflection(0.32)), _z2_system(_reflection(0.32 + 1e-15))
        assert a == b
        ca, cb = graphs._conjugation_action(a.action, 0), graphs._conjugation_action(b.action, 0)
        assert ca is not cb
        assert not np.array_equal(_stack(ca), _stack(cb))
        for sys, got in ((a, ca), (b, cb)):
            fresh = graphs._conjugation_action.__wrapped__(sys.action, 0)
            assert np.array_equal(_stack(got), _stack(fresh))


class TestIdentityChannel:
    def test_equal_systems_share_one_identity_channel(self):
        ident = cpmaps.identity_channel(systems.system((2,)))
        assert cpmaps.identity_channel(systems.system((2,))) is ident
        assert cpmaps.identity_channel(systems.system((2, 1))) is not ident

    def test_memos_serve_every_caller(self):
        sys = systems.system((1, 2))
        first = cpmaps.identity_channel(sys)
        rel = relations.support_of(first)
        gamma = graphs.confusability_of(first)
        again = cpmaps.identity_channel(systems.system((1, 2)))
        assert relations.support_of(again) is rel and graphs.confusability_of(again) is gamma

    def test_roundoff_close_systems_get_their_own_channel(self):
        a, b = _z2_system(_reflection(0.33)), _z2_system(_reflection(0.33 + 1e-15))
        assert a == b
        ia, ib = cpmaps.identity_channel(a), cpmaps.identity_channel(b)
        assert ia is not ib
        assert ia.source.exact_key == a.exact_key and ib.source.exact_key == b.exact_key
        assert ib.source.action.exact_key != ia.source.action.exact_key


class TestSystems:
    """systems.system, classical_system and the bundle build through one
    constructor shared per dims, weights and the action's exact key;
    systems.System stays the raw, unshared constructor."""

    def test_one_system_per_exact_key(self):
        a = systems.classical_system(3)
        assert systems.classical_system(3) is a and systems.system((1, 1, 1)) is a
        assert systems.system((1, 1, 1)) is a
        assert systems.classical_system(4) is not a
        assert systems.system((2, 1)) is systems.system([2, 1]) is not systems.system((1, 2))
        raw = systems.System(a.dims, a.action, a.weights)
        assert raw is not a and raw.exact_key == a.exact_key

    def test_two_loads_of_one_bundle_share_each_system(self):
        z = np.diag([1.0, -1.0])
        data = _conjugation_bundle(z)
        a, b = (bundle.load_bundle(data).systems["A"] for _ in range(2))
        assert a is b
        assert systems.system((2,), a.action) is a

    def test_roundoff_close_action_gives_its_own_equal_system(self):
        z2 = groups.cyclic_group(2)
        u, close = _reflection(0.4), _reflection(0.4 + 1e-15)
        a = systems.system((2,), inner_action(z2, 2, [np.eye(2), u]))
        b = systems.system((2,), inner_action(z2, 2, [np.eye(2), close]))
        assert a is not b and a == b and a.exact_key != b.exact_key
        assert systems.system((2,), inner_action(z2, 2, [np.eye(2), close])) is b

    def test_raising_construction_shares_nothing(self, monkeypatch):
        checked = []
        post_init = systems.System.__post_init__

        def counted(sys):
            checked.append(sys.dims)
            post_init(sys)

        monkeypatch.setattr(systems.System, "__post_init__", counted)
        swap = groups.permutation_action(groups.cyclic_group(2), (1, 1), ((0, 1), (1, 0)))
        for _ in range(2):
            with pytest.raises(ActionShapeMismatch, match="constant on action orbits"):
                systems._shared_system((1, 1), (1.0, 2.0), swap)
        ok = [systems._shared_system((1, 1), (2.0, 2.0), swap) for _ in range(2)]
        assert ok[0] is ok[1]
        assert checked == [(1, 1)] * 3

    def test_complete_simple_graph_is_one_object_per_system(self):
        a = systems.system((2, 1))
        graph = scc._complete_simple_graph(a)
        assert scc._complete_simple_graph(systems.system((2, 1))) is graph
        assert scc._complete_simple_graph(systems.system((1, 2))) is not graph
        fresh = graphs.complement(graphs.discrete_graph(a))
        assert graph.system.exact_key == a.exact_key
        assert relations.relations_equal(graph.relation, fresh.relation)
        close = [_z2_system(_reflection(t)) for t in (0.7, 0.7 + 1e-15)]
        assert close[0] == close[1]
        assert scc._complete_simple_graph(close[0]) is not scc._complete_simple_graph(close[1])


class TestTensorSystemAndDiscrete:
    def test_exactly_equal_systems_share_the_product_and_the_discrete_relation(self):
        z = np.diag([1.0, -1.0])
        a, b = _z2_system(z), _z2_system(z)
        assert a is not b and a.exact_key == b.exact_key
        assert scc.tensor_system(b, b) is scc.tensor_system(a, a)
        assert relations.discrete(b) is relations.discrete(a)

    def test_exact_key_is_built_and_hashed_once(self):
        """An exact key is a digest set once with its owner: bytes, the same
        object on every read, kept by pickling, equal for an independently
        built twin, and another when only the dims, the weights, the perms
        or one unitary entry differ."""
        a, b = _z2_system(np.diag([1.0, -1.0])), systems.classical_system(64)
        for sys in (a, b):
            for owner in (sys, sys.action):
                key = owner.exact_key
                assert isinstance(key, bytes) and owner.exact_key is key
                assert pickle.loads(pickle.dumps(key)) == key
            twin = unshared_system(sys.dims, sys.action)
            assert twin is not sys and twin.exact_key == sys.exact_key
        trivial = groups.trivial_group()
        dims = [systems.System((d,), groups.trivial_action(trivial, (d,)), (1.0,))
                for d in (2, 3)]
        swap = groups.permutation_action(groups.cyclic_group(2), (1, 1), ((0, 1), (1, 0)))
        fixed = groups.permutation_action(groups.cyclic_group(2), (1, 1), ((0, 1), (0, 1)))
        weights = [systems.System((1, 1), fixed, w) for w in ((1.0, 1.0), (1.0, 2.0))]
        perms = [systems.System((1, 1), action, (1.0, 1.0)) for action in (fixed, swap)]
        u = _reflection(0.38)
        v = u.copy()
        v[0, 0] += 1e-15
        assert np.count_nonzero(u != v) == 1
        entry = [_z2_system(u), _z2_system(v)]
        for x, y in (dims, weights, perms, entry):
            assert x.exact_key != y.exact_key
        assert entry[0].action.exact_key != entry[1].action.exact_key

    def test_roundoff_close_systems_get_their_own_product(self):
        a, b = _z2_system(_reflection(0.34)), _z2_system(_reflection(0.34 + 1e-15))
        assert a == b
        ta, tb = scc.tensor_system(a, a), scc.tensor_system(b, b)
        assert tb is not ta
        for sys, ts in ((a, ta), (b, tb)):
            assert ts.left is sys and ts.right is sys
            for g in sys.group.elements:
                u = unitary(sys.action, g, 0)
                got = unitary(ts.product.action, g, 0)
                assert np.array_equal(got, np.kron(u, u)), g

    def test_roundoff_close_systems_get_their_own_discrete_relation(self):
        a, b = _z2_system(_reflection(0.35)), _z2_system(_reflection(0.35 + 1e-15))
        assert a == b
        assert relations.discrete(a).source is a and relations.discrete(a).target is a
        assert relations.discrete(b).source is b and relations.discrete(b).target is b


def _only_class(action):
    """The one class of the layout of a one-factor action's dims with itself."""
    (klass,) = systems.layout(action.dims, action.dims).classes
    return klass


class TestTransportPlans:
    def test_exactly_equal_action_pairs_share_one_plan(self):
        z = np.diag([1.0, -1.0])
        a, b = _z2_system(z).action, _z2_system(z).action
        assert a is not b
        assert groups.transport_plan(b, b) is groups.transport_plan(a, a)
        assert groups.transport_plan(a, b) is groups.transport_plan(a, a)

    def test_each_ordered_pair_gets_its_own_plan(self):
        a = _z2_system(np.diag([1.0, -1.0])).action
        b = _z2_system(np.array([[0.0, 1.0], [1.0, 0.0]])).action
        plans = {(s, t): groups.transport_plan(s, t) for s in (a, b) for t in (a, b)}
        assert len({id(plan) for plan in plans.values()}) == 4
        for (s, t), plan in plans.items():
            w, _ = plan.step(1, _only_class(s))
            assert np.array_equal(w[0], np.kron(unitary(t, 1, 0).conj(), unitary(s, 1, 0)))

    def test_roundoff_close_actions_get_their_own_plan(self):
        a, b = _z2_system(_reflection(0.36)).action, _z2_system(_reflection(0.36 + 1e-15)).action
        assert a == b
        pa, pb = groups.transport_plan(a, a), groups.transport_plan(b, b)
        assert pb is not pa
        for act, plan in ((a, pa), (b, pb)):
            w, image = plan.step(1, _only_class(act))
            u = unitary(act, 1, 0)
            assert np.array_equal(w[0], np.kron(u.conj(), u))
            assert not w.flags.writeable and not image.flags.writeable

    def test_actions_of_different_groups_raise_on_every_call(self):
        a = _z2_system(np.diag([1.0, -1.0])).action
        c3 = groups.trivial_action(groups.cyclic_group(3), (2,))
        for _ in range(2):
            with pytest.raises(GroupMismatch, match="must share one group"):
                groups.transport_plan(a, c3)


# Systems whose "factors" or "perms" hold an entry that is not an integer:
# (systems entry, text the error names).
MALFORMED_SYSTEMS = {
    "float factor": ({"factors": [2.7]}, "factors entry 2.7 is not an integer"),
    "bool factor": ({"factors": [True]}, "factors entry True is not an integer"),
    "float perm": ({"factors": [1, 1], "action": {"perms": {"1": [1.9, 0.2]}}},
                   "perms entry 1.9 is not an integer"),
    "bool perm": ({"factors": [1, 1], "action": {"perms": {"1": [True, 0]}}},
                  "perms entry True is not an integer"),
}


def _malformed_system_bundle(case: str) -> dict:
    spec, _ = MALFORMED_SYSTEMS[case]
    one = bundle.matrix_to_json(np.eye(1))
    return {"group": C2, "systems": {"A": spec},
            "channels": {"id": {"from": "A", "to": "A", "kraus": {"0,0": [one]}}}}


class TestMalformedSystems:
    @pytest.mark.parametrize("case", sorted(MALFORMED_SYSTEMS))
    def test_load_bundle_raises_on_every_load(self, case):
        _, text = MALFORMED_SYSTEMS[case]
        for _ in range(2):
            with pytest.raises(BundleError, match=f"system 'A': {text}"):
                bundle.load_bundle(_malformed_system_bundle(case))

    @pytest.mark.parametrize("case", sorted(MALFORMED_SYSTEMS))
    def test_cli_exits_2_on_every_run(self, case, tmp_path):
        _, text = MALFORMED_SYSTEMS[case]
        path = tmp_path / "bad_system.json"
        path.write_text(json.dumps(_malformed_system_bundle(case)))
        for _ in range(2):
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["analyze-channel", str(path), "id"]) == 2
            assert "cannot load bundle" in err.getvalue() and text in err.getvalue()


class TestSharedRule:
    """groups.shared: one object per exact key of the arguments, built by the
    first caller's arguments; a raising call keeps nothing."""

    @staticmethod
    def _counted():
        built = []

        @groups.shared
        def make(action, extra):
            """Builds one object per call."""
            if extra < 0:
                raise ValueError("negative extra")
            built.append((action, extra))
            return object()

        return make, built

    def test_equal_exact_keys_give_one_object(self):
        make, built = self._counted()
        z = np.diag([1.0, -1.0])
        a, b = _z2_system(z).action, _z2_system(z).action
        assert a is not b and a.exact_key == b.exact_key
        assert make(b, 0) is make(a, 0)
        assert built == [(b, 0)]
        assert make(a, 1) is not make(a, 0)
        assert make.__name__ == "make" and make.__doc__ == "Builds one object per call."

    def test_roundoff_close_actions_give_separate_objects(self):
        make, built = self._counted()
        a, b = _z2_system(_reflection(0.37)).action, _z2_system(_reflection(0.37 + 1e-15)).action
        assert a == b
        assert make(a, 0) is not make(b, 0)
        assert [action for action, _ in built] == [a, b]
        assert built[0][0] is a and built[1][0] is b

    def test_raising_call_shares_nothing(self):
        make, built = self._counted()
        a = _z2_system(np.diag([1.0, -1.0])).action
        for _ in range(2):
            with pytest.raises(ValueError, match="negative extra"):
                make(a, -1)
        assert built == []

    def test_keyword_and_positional_calls_give_one_object(self):
        make, built = self._counted()
        a = _z2_system(np.diag([1.0, -1.0])).action
        first = make(a, extra=2)
        assert make(a, 2) is first and make(action=a, extra=2) is first
        assert len(built) == 1

    def test_least_recently_used_key_goes_first(self):
        """128 keys fill a shared function; a hit makes its key the most
        recent, so the 129th key drops the oldest other one.  A keyword call
        hits its positional twin, and a call that raises drops nothing: the
        oldest key still hits after it."""
        make, built = self._counted()
        a = _z2_system(np.diag([1.0, -1.0])).action
        first = [make(a, k) for k in range(128)]
        assert len(built) == 128
        assert make(a, 0) is first[0] and len(built) == 128
        make(a, 128)
        assert make(a, 0) is first[0] and len(built) == 129
        assert make(a, 1) is not first[1] and built[-1] == (a, 1)
        assert make(a, extra=5) is make(a, 5) is first[5] and len(built) == 130
        with pytest.raises(ValueError, match="negative extra"):
            make(a, -1)
        assert make(a, 3) is first[3] and len(built) == 130


class TestKeptRule:
    """groups.kept: derive(owner, *args) kept on the owner once per tuple of
    positional arguments; a raising call keeps nothing, and the memo dies
    with its owner."""

    class Owner:
        """A plain object: an owner, or what is derived from one."""

    @classmethod
    def _counted(cls):
        derived = []

        @groups.kept
        def derive(owner, extra):
            """Derives one object per call."""
            if extra < 0:
                raise ValueError("negative extra")
            derived.append(extra)
            return cls.Owner()

        return derive, derived

    def test_one_object_per_owner_and_arguments(self):
        derive, derived = self._counted()
        a, b = self.Owner(), self.Owner()
        first = derive(a, 1)
        assert derive(a, 1) is first and derive(a, 2) is not first
        assert derive(b, 1) is not first
        assert derived == [1, 2, 1]
        assert held(a, derive, 1) is first and held(a, derive, 3) is None
        assert derive.__name__ == "derive" and derive.__doc__ == "Derives one object per call."

    def test_raising_call_keeps_nothing(self):
        derive, derived = self._counted()
        a = self.Owner()
        for _ in range(2):
            with pytest.raises(ValueError, match="negative extra"):
                derive(a, -1)
        assert derived == [] and held(a, derive, -1) is None

    def test_memo_dies_with_its_owner(self):
        derive, _ = self._counted()
        a = self.Owner()
        refs = [weakref.ref(a), weakref.ref(derive(a, 1))]
        gc.disable()
        try:
            del a
            assert [r() for r in refs] == [None, None]
        finally:
            gc.enable()

    def test_frozen_owner(self):
        @dataclasses.dataclass(frozen=True)
        class Frozen:
            n: int

            @groups.kept
            def pairs(self):
                return np.divmod(np.arange(self.n * self.n), self.n)

        owner = Frozen(3)
        assert owner.pairs() is owner.pairs()
        assert held(owner, Frozen.pairs) is owner.pairs()


# The two slots a module keeps on an object of another module by design:
# a relation's converse, kept only when its frames are held, and a source's
# last checked scheme.
OWN_SLOTS = {("relations", "converse", "p._converse"), ("scc", "_checked_composite", "src._checked")}


def _foreign_private_writes():
    """(module, function, target) of every assignment in src/ to a private
    attribute of an object other than self, or to an item of one, and of
    every setattr of a private name on such an object; groups.kept, which
    keeps every memo, excepted."""
    found = set()
    for path in sorted(pathlib.Path(covgraphs.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        exempt = {id(node) for fn in ast.walk(tree)
                  if isinstance(fn, ast.FunctionDef) and fn.name == "kept" for node in ast.walk(fn)}
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) or id(fn) in exempt:
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Assign):
                    targets = [t for top in node.targets
                               for t in (top.elts if isinstance(top, ast.Tuple) else [top])]
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                    targets = [node.target]
                elif (isinstance(node, ast.Call) and len(node.args) > 1
                      and ast.unparse(node.func) in ("setattr", "object.__setattr__")
                      and isinstance(node.args[1], ast.Constant)):
                    targets = [ast.Attribute(node.args[0], node.args[1].value)]
                else:
                    continue
                for t in targets:
                    while isinstance(t, ast.Subscript):
                        t = t.value
                    if (isinstance(t, ast.Attribute) and t.attr.startswith("_")
                            and not (isinstance(t.value, ast.Name) and t.value.id == "self")):
                        found.add((path.stem, fn.name, ast.unparse(t)))
    return found


def test_no_module_writes_another_objects_private_slot():
    assert _foreign_private_writes() == OWN_SLOTS


def _memo_functions():
    """{module.function: takes positional parameters only} for every
    function in src/ decorated @shared or @kept."""
    found = {}
    for path in sorted(pathlib.Path(covgraphs.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.FunctionDef) and any(
                    ast.unparse(d).split(".")[-1] in ("shared", "kept")
                    for d in fn.decorator_list):
                a = fn.args
                found[f"{path.stem}.{fn.name}"] = not (
                    a.defaults or a.kw_defaults or a.kwonlyargs or a.vararg or a.kwarg)
    return found


def test_shared_and_kept_functions_take_positional_parameters_only():
    """shared and kept key a call by its positional arguments, so a memo
    function has no default, no *args or **kwargs and no keyword-only
    parameter."""
    memo = _memo_functions()
    assert len(memo) >= 19
    assert [name for name, plain in memo.items() if not plain] == []
