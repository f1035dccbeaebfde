from __future__ import annotations

import copy
from importlib import resources

import pytest

from dialogsim.markup import annotate_seed_acts, parse_corpus
from dialogsim.schema import loads_schema


def _read_data(name: str) -> str:
    return (resources.files("dialogsim.data") / name).read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def demo_bundle():
    return loads_schema(_read_data("demo_schema.json"))


@pytest.fixture(scope="session")
def demo_schema_text():
    return _read_data("demo_schema.json")


@pytest.fixture(scope="session")
def demo_seeds_text():
    return _read_data("demo_seeds.txt")


@pytest.fixture(scope="session")
def _demo_seeds_raw(demo_bundle, demo_seeds_text):
    return parse_corpus(demo_seeds_text, demo_bundle)


@pytest.fixture()
def demo_seeds(_demo_seeds_raw):
    return copy.deepcopy(_demo_seeds_raw)


@pytest.fixture(scope="session")
def demo_seeds_annotated(demo_bundle, _demo_seeds_raw):
    return [annotate_seed_acts(s, demo_bundle) for s in _demo_seeds_raw]


# ticket-booking schema without the confirm-before-call flag, for
# deterministic happy-path traces
FLOW_SCHEMA = """
{
  "domains": [
    {
      "name": "TicketBooking",
      "entity_types": [
        {"name": "location", "kind": "catalog", "catalog": ["Sunnyvale", "Berkeley"]},
        {"name": "movieTitle", "kind": "catalog", "catalog": ["Tenet", "Arrival"]},
        {"name": "count", "kind": "catalog", "catalog": ["one", "two"]},
        {"name": "ticketType", "kind": "catalog", "catalog": ["adult", "child"]},
        {"name": "theater", "kind": "catalog", "catalog": ["AMC Theater", "Roxie"]},
        {"name": "movieList", "kind": "object"},
        {"name": "showInfo", "kind": "object"},
        {"name": "bookingRef", "kind": "object"}
      ],
      "apis": [
        {
          "name": "FindMovies",
          "args": [
            {"name": "location", "type": "location", "required": true},
            {"name": "timeLowerBound", "type": "Time", "required": false}
          ],
          "return": {"name": "movies", "type": "movieList"},
          "response_template": "announce_movies"
        },
        {
          "name": "SelectShow",
          "args": [
            {"name": "showTime", "type": "Time", "required": true},
            {"name": "movieTitle", "type": "movieTitle", "required": true},
            {"name": "movies", "type": "movieList", "required": false}
          ],
          "return": {"name": "show", "type": "showInfo"},
          "response_template": "announce_show"
        },
        {
          "name": "BookTickets",
          "args": [
            {"name": "show", "type": "showInfo", "required": true},
            {"name": "count", "type": "count", "required": true},
            {"name": "ticketType", "type": "ticketType", "required": true}
          ],
          "return": {"name": "booking", "type": "bookingRef"},
          "response_template": "announce_booking"
        }
      ],
      "response_templates": [
        {
          "name": "announce_movies",
          "args": [
            {"name": "movieTitle", "type": "movieTitle", "required": true},
            {"name": "showTime", "type": "Time", "required": true}
          ],
          "acts": ["inform(entity:movieTitle),inform(entity:Time)"],
          "templates": ["{movieTitle} is playing at {showTime}"]
        },
        {
          "name": "announce_show",
          "args": [{"name": "ticketType", "type": "ticketType", "required": true}],
          "acts": ["inform(entity:ticketType)"],
          "templates": ["OK. The available ticket type is {ticketType} ticket"]
        },
        {
          "name": "announce_booking",
          "args": [],
          "acts": ["inform(entity:bookingRef)"],
          "templates": ["Your tickets are booked."]
        },
        {
          "name": "closing",
          "args": [],
          "acts": ["bye()"],
          "templates": ["Thank you for using Atom Tickets"]
        }
      ],
      "utterance_templates": []
    }
  ]
}
"""

FLOW_SEED = """\
U-1: What movies are playing in [Sunnyvale|location0] after [2 PM|time0]?
S-2: call: FindMovies(location=$location0,timeLowerBound=$time0) -> movieList0
S-3: nlg: Tenet is playing at 4 PM
U-4: Tell me more about the [4 PM|time1] show of [Tenet|movieTitle0]
S-5: call: SelectShow(showTime=$time1,movieTitle=$movieTitle0,movies=$movieList0) -> showInfo0
S-6: nlg: OK. The available ticket type is adult ticket
U-7: Book [two|count0] [adult|ticketType0] tickets for this show
S-8: call: BookTickets(show=$showInfo0,count=$count0,ticketType=$ticketType0) -> bookingRef0
U-9: Ok thank you
S-10: nlg: Thank you for using Atom Tickets
"""


@pytest.fixture(scope="session")
def flow_bundle():
    return loads_schema(FLOW_SCHEMA)


@pytest.fixture()
def flow_seed(flow_bundle):
    (dialog,) = parse_corpus(FLOW_SEED, flow_bundle)
    return annotate_seed_acts(dialog, flow_bundle)


# three no-argument APIs for goal-chain tests
CHAIN_SCHEMA = """
{
  "domains": [
    {
      "name": "Chain",
      "entity_types": [
        {"name": "aOut", "kind": "object"},
        {"name": "bOut", "kind": "object"},
        {"name": "cOut", "kind": "object"}
      ],
      "apis": [
        {"name": "A", "args": [], "return": {"name": "a", "type": "aOut"}, "response_template": "done"},
        {"name": "B", "args": [], "return": {"name": "b", "type": "bOut"}, "response_template": "done"},
        {"name": "C", "args": [], "return": {"name": "c", "type": "cOut"}, "response_template": "done"}
      ],
      "response_templates": [
        {"name": "done", "args": [], "acts": ["inform(entity:aOut)"], "templates": ["Done."]}
      ],
      "utterance_templates": []
    }
  ]
}
"""


@pytest.fixture(scope="session")
def chain_bundle():
    return loads_schema(CHAIN_SCHEMA)


TWO_DOMAIN_SCHEMA = """
{
  "domains": [
    {
      "name": "Movies",
      "entity_types": [
        {"name": "movieName", "kind": "catalog", "catalog": ["Tenet"]}
      ],
      "apis": [
        {"name": "PickMovie", "args": [], "return": {"name": "name", "type": "movieName"}, "response_template": "say_movie"},
        {"name": "PickTime", "args": [], "return": {"name": "when", "type": "Time"}, "response_template": "say_movie"}
      ],
      "response_templates": [
        {"name": "say_movie", "args": [], "acts": ["inform(entity:movieName)"], "templates": ["Here."]}
      ],
      "utterance_templates": []
    },
    {
      "name": "Dining",
      "entity_types": [
        {"name": "restaurant", "kind": "catalog", "catalog": ["Nopa"]}
      ],
      "apis": [
        {
          "name": "BookTable",
          "args": [
            {"name": "movie", "type": "movieName", "required": false},
            {"name": "when", "type": "Time", "required": false},
            {"name": "place", "type": "restaurant", "required": true}
          ],
          "return": {"name": "table", "type": "restaurant"},
          "response_template": "say_table"
        }
      ],
      "response_templates": [
        {"name": "say_table", "args": [], "acts": ["inform(entity:restaurant)"], "templates": ["Booked."]}
      ],
      "utterance_templates": []
    }
  ]
}
"""


@pytest.fixture(scope="session")
def two_domain_bundle():
    return loads_schema(TWO_DOMAIN_SCHEMA)


# one API returns a catalog-kind type, a later API takes it, and no
# response template renders an offer: the offer is canned text that speaks
# the return's catalog surface
CATALOG_RETURN_SCHEMA = """
{
  "domains": [
    {
      "name": "Dining",
      "entity_types": [
        {"name": "city", "kind": "catalog", "catalog": ["Berkeley", "Oakland"]},
        {"name": "restaurant", "kind": "catalog", "catalog": ["Nopa", "Zuni", "Chez Panisse"]},
        {"name": "tableRef", "kind": "object"}
      ],
      "apis": [
        {
          "name": "FindRestaurant",
          "args": [{"name": "city", "type": "city", "required": true}],
          "return": {"name": "place", "type": "restaurant"},
          "response_template": "found"
        },
        {
          "name": "BookTable",
          "args": [{"name": "place", "type": "restaurant", "required": true}],
          "return": {"name": "table", "type": "tableRef"},
          "response_template": "booked"
        }
      ],
      "response_templates": [
        {"name": "found", "args": [], "acts": ["inform(entity:restaurant)"], "templates": ["I found a place."]},
        {"name": "booked", "args": [], "acts": ["inform(entity:tableRef)"], "templates": ["Your table is booked."]},
        {"name": "closing", "args": [], "acts": ["bye()"], "templates": ["Enjoy your meal."]}
      ],
      "utterance_templates": []
    }
  ]
}
"""

CATALOG_RETURN_SEED = """\
U-1: Find me a restaurant in [Berkeley|city0]
S-2: call: FindRestaurant(city=$city0) -> restaurant0
S-3: nlg: I found a place.
U-4: Book a table there
S-5: call: BookTable(place=$restaurant0) -> tableRef0
S-6: nlg: Your table is booked.
U-7: Thanks, bye
S-8: nlg: Enjoy your meal.
"""


@pytest.fixture(scope="session")
def catalog_return_bundle():
    return loads_schema(CATALOG_RETURN_SCHEMA)


@pytest.fixture()
def catalog_return_seeds(catalog_return_bundle):
    return parse_corpus(CATALOG_RETURN_SEED, catalog_return_bundle)


# Use needs a ticket, an object kind that no API returns and no catalog
# holds: the Markov sampler can bind no goal that starts with it
STUCK_SCHEMA = """
{
  "domains": [
    {
      "name": "Stuck",
      "entity_types": [
        {"name": "ticket", "kind": "object"},
        {"name": "receipt", "kind": "object"}
      ],
      "apis": [
        {
          "name": "Use",
          "args": [{"name": "ticket", "type": "ticket", "required": true}],
          "return": {"name": "receipt", "type": "receipt"},
          "response_template": "used"
        }
      ],
      "response_templates": [
        {"name": "used", "args": [], "acts": ["inform(entity:receipt)"], "templates": ["Done."]}
      ],
      "utterance_templates": []
    }
  ]
}
"""


@pytest.fixture(scope="session")
def stuck_bundle():
    return loads_schema(STUCK_SCHEMA)
