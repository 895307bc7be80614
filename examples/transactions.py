"""Sessions and transactions: begin, mutate, roll back — nothing happened.

Run with::

    PYTHONPATH=src python examples/transactions.py

PASCAL/R embeds the database in a host program that mutates relations inside
a controlled scope.  This walkthrough shows the session layer reproducing
that scope over the Figure 1 database:

1. ``connect()`` opens the thread-safe connection front door;
2. a context-managed session journals every insert/delete/assign/clear;
3. queries inside the transaction see the uncommitted writes;
4. ``rollback()`` restores relations, permanent indexes and cached-plan
   validity exactly (an exception inside the ``with`` block rolls back too);
5. a clean ``with`` exit commits.
"""

from repro import connect, build_university_database
from repro.workloads.queries import PROFESSORS_TEXT

YOUNG_PROFESSOR = {"enr": 990, "ename": "Noether", "estatus": "professor"}


def professor_names(cursor_owner) -> list[str]:
    cursor = cursor_owner.execute(PROFESSORS_TEXT)
    return sorted(record.ename.strip() for record in cursor)


def main() -> None:
    database = build_university_database(scale=1)
    database.create_index("employees", "enr")  # derived from what rollback restores
    connection = connect(database)
    employees = database.relation("employees")

    print("professors before any transaction:")
    print(f"  {professor_names(connection)}")
    print()

    # -- a transaction that rolls back -----------------------------------------
    session = connection.session()
    with session:
        employees.insert(YOUNG_PROFESSOR)
        print("inside the transaction (uncommitted insert is visible):")
        print(f"  {professor_names(session)}")
        print(f"  journal: {len(session.journal)} operation(s) "
              f"over {session.journal.touched_relations()}")
        session.rollback()
    print("after rollback (exactly the pre-begin state, index included):")
    print(f"  {professor_names(connection)}")
    index = database.index_for("employees", "enr")
    print(f"  index probe for enr=990: {index.probe_operator('=', 990)}")
    print()

    # -- an exception rolls back automatically ----------------------------------
    try:
        with connection.session():
            employees.clear()
            raise RuntimeError("changed my mind")
    except RuntimeError:
        pass
    print("after an exception inside the with-block:")
    print(f"  employees still has {len(employees)} elements")
    print()

    # -- a clean exit commits ----------------------------------------------------
    with connection.session():
        employees.insert(YOUNG_PROFESSOR)
    print("after a committed transaction:")
    print(f"  {professor_names(connection)}")

    connection.close()


if __name__ == "__main__":
    main()
